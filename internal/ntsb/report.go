package ntsb

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"aryn/internal/llm"
	"aryn/internal/randsrc"
	"aryn/internal/rawdoc"
)

// Disclaimer is the boilerplate paragraph every NTSB report carries; it
// contains llm.DisclaimerMarker and is the vector for RAG context
// poisoning (§7.2).
const Disclaimer = "The NTSB does not assign fault or blame for an accident or incident; " +
	"rather, as specified by NTSB regulation, accident/incident investigations are fact-finding " +
	"proceedings with no formal issues and no adverse parties, and are not conducted for the " +
	"purpose of determining the rights or liabilities of any person (Title 49 Code of Federal " +
	"Regulations section 831.4)."

// BuildReport renders the incident as a complete multi-page report
// document: header table, analysis narrative, probable cause, factual
// tables, photographs, and administrative boilerplate.
func BuildReport(inc *Incident) *rawdoc.Doc {
	h := fnv.New64a()
	h.Write([]byte(inc.ReportID))
	rng := randsrc.New(int64(h.Sum64()))

	b := rawdoc.NewBuilder(inc.ReportID, "Aviation Investigation Final Report — "+inc.ReportID)
	b.SetFurniture("National Transportation Safety Board — Aviation Investigation Final Report", inc.ReportID)

	b.AddTitle("Aviation Investigation Final Report")
	b.AddTable([][]string{
		{"Field", "Value"},
		{"Location", fmt.Sprintf("%s, %s", inc.City, inc.State)},
		{"Accident Number", inc.AccidentNumber},
		{"Date & Time", inc.Date.Format("January 2, 2006 15:04")},
		{"Aircraft", inc.Aircraft},
		{"Aircraft Category", inc.Category},
		{"Aircraft Damage", inc.Damage},
		{"Registration", inc.Registration},
		{"Injuries", inc.InjuryText},
		{"Defining Event", definingEvent(inc)},
		{"Flight Conducted Under", inc.PartRegulation},
	}, true)

	b.AddSectionHeader("Analysis")
	for _, p := range narrative(inc, rng) {
		b.AddParagraph(p)
	}

	b.AddSectionHeader("Probable Cause and Findings")
	b.AddParagraph("The National Transportation Safety Board determines the probable cause of this accident to be: " + probableCause(inc))
	b.AddParagraph(Disclaimer)

	b.AddSectionHeader("Factual Information")
	b.AddParagraph("Pilot Information")
	b.AddTable([][]string{
		{"Certificate", inc.PilotCert},
		{"Age", fmt.Sprintf("%d", 19+rng.Intn(55))},
		{"Flight Time", fmt.Sprintf("%d hours (total, all aircraft)", inc.PilotHours)},
		{"Medical Certification", "Class 3 valid"},
	}, false)

	b.AddParagraph("Aircraft and Owner/Operator Information")
	b.AddTable([][]string{
		{"Aircraft Make", inc.Manufacturer},
		{"Model/Series", strings.TrimPrefix(inc.Aircraft, inc.Manufacturer+" ")},
		{"Engines", fmt.Sprintf("%d %s", inc.Engines, inc.EngineType)},
		{"Registration", inc.Registration},
		{"Operator", inc.Operator},
		{"Operating Certificate(s) Held", "None"},
	}, false)

	b.AddParagraph("Meteorological Information and Flight Plan")
	wind := fmt.Sprintf("%d knots", inc.WindSpeed)
	if inc.WindGust > 0 {
		wind = fmt.Sprintf("%d knots gusting to %d knots", inc.WindSpeed, inc.WindGust)
	}
	b.AddTable([][]string{
		{"Conditions at Accident Site", inc.Conditions},
		{"Visibility", fmt.Sprintf("%.1f miles", inc.Visibility)},
		{"Wind Speed", wind},
		{"Wind Direction", fmt.Sprintf("%d0°", 1+rng.Intn(35))},
		{"Temperature", fmt.Sprintf("%.1fC", inc.Temperature)},
		{"Condition of Light", lightCondition(inc)},
		{"Departure Point", inc.Departure},
		{"Destination", inc.Destination},
	}, false)

	b.AddParagraph("Wreckage and Impact Information")
	b.AddTable([][]string{
		{"Crew Injuries", inc.InjuryText},
		{"Aircraft Damage", inc.Damage},
		{"Aircraft Fire", yesNo(inc.Fire, "On-ground", "None")},
		{"Ground Injuries", "N/A"},
	}, false)

	b.PageBreak()
	b.AddImage("photograph of the main wreckage at the accident site", "jpeg", 900, 600)
	b.AddCaption(fmt.Sprintf("Figure 1: Main wreckage of %s (%s).", inc.Aircraft, inc.Registration))
	if rng.Float64() < 0.5 {
		b.AddImage("map of the flight track with the accident location marked", "png", 800, 500)
		b.AddCaption("Figure 2: Flight track overview.")
	}

	b.AddSectionHeader("Administrative Information")
	b.AddParagraph(fmt.Sprintf("Investigator In Charge (IIC): %s. Report published %s. "+
		"The NTSB traveled to the scene of this accident.",
		iicNames[rng.Intn(len(iicNames))], inc.Date.AddDate(0, 3, 0).Format("January 2, 2006")))
	b.AddFootnote("Times are local unless otherwise noted.")

	doc := b.Doc()
	doc.Meta["accident_number"] = inc.AccidentNumber
	return doc
}

var iicNames = []string{
	"Taylor Morgan", "Jordan Blake", "Casey Whitfield", "Riley Donovan", "Avery Sinclair",
}

func yesNo(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

func lightCondition(inc *Incident) string {
	if inc.Night {
		return "Night"
	}
	return "Day"
}

func definingEvent(inc *Incident) string {
	switch inc.Cause {
	case CauseEngine:
		return "Loss of engine power (total)"
	case CauseFuel:
		return "Fuel related"
	case CauseWeather:
		return "Loss of control in flight"
	case CauseBird:
		return "Birdstrike"
	case CauseMaintenance:
		return "Sys/Comp malf/fail (non-power)"
	case CauseMidair:
		return "Midair collision"
	default:
		return "Loss of control on ground"
	}
}

// narrative writes the Analysis section: 2-4 paragraphs embedding the
// extractable facts (damaged part, cause mechanics, incidental engine
// examination) in prose, the way real reports do.
func narrative(inc *Incident, rng *rand.Rand) []string {
	var paras []string
	opening := fmt.Sprintf("On %s, about %s, a %s, %s, was %s near %s, %s. "+
		"The flight was conducted under %s.",
		inc.Date.Format("January 2, 2006"), inc.Date.Format("15:04"),
		inc.Aircraft, inc.Registration,
		damageVerb(inc), inc.City, inc.State, inc.PartRegulation)
	paras = append(paras, opening)

	switch inc.Cause {
	case CauseEngine:
		paras = append(paras, fmt.Sprintf(
			"The pilot reported that during %s the engine experienced a %s loss of power. "+
				"Attempts to restore power by adjusting the throttle and mixture were unsuccessful. "+
				"The pilot executed a forced landing to a field, and the airplane sustained %s damage to the %s. "+
				"A post-accident examination of the engine revealed a failed %s.",
			inc.Phase, []string{"total", "partial"}[rng.Intn(2)],
			severity(inc.Damage), inc.DamagedPart,
			[]string{"cylinder", "crankshaft bearing", "magneto", "exhaust valve"}[rng.Intn(4)]))
	case CauseFuel:
		paras = append(paras, fmt.Sprintf(
			"During %s, the engine lost power. The pilot was unable to reach a runway and landed in rough terrain, "+
				"resulting in %s damage to the %s. Examination revealed that the fuel tanks contained "+
				"%s. The engine itself exhibited no mechanical anomalies; the power loss was consistent with %s.",
			inc.Phase, severity(inc.Damage), inc.DamagedPart,
			[]string{"only unusable fuel", "water-contaminated fuel", "less than one gallon of fuel"}[rng.Intn(3)],
			[]string{"fuel exhaustion", "fuel starvation", "fuel contamination"}[rng.Intn(3)]))
	case CausePilot:
		p := fmt.Sprintf(
			"The pilot %s during %s, and the aircraft %s, resulting in %s damage to the %s.",
			[]string{"failed to maintain directional control", "misjudged the flare", "allowed the airspeed to decay",
				"lost control"}[rng.Intn(4)],
			inc.Phase,
			[]string{"veered off the runway", "landed hard and bounced", "entered an aerodynamic stall",
				"struck a fence"}[rng.Intn(4)],
			severity(inc.Damage), inc.DamagedPart)
		if inc.Water {
			p = fmt.Sprintf("The pilot lost control during %s over a lake and the aircraft ditched into the water, "+
				"resulting in %s damage to the %s. The occupants egressed before the airplane partially sank.",
				inc.Phase, severity(inc.Damage), inc.DamagedPart)
		}
		paras = append(paras, p)
	case CauseWeather:
		paras = append(paras, fmt.Sprintf(
			"Weather conditions included wind of %d knots gusting to %d knots%s. While %s, the %s encountered "+
				"%s, and the pilot was unable to maintain control. The aircraft sustained %s damage to the %s.",
			inc.WindSpeed, inc.WindGust, imcClause(inc), gerund(inc.Phase), strings.ToLower(inc.Category),
			[]string{"a strong gusting crosswind", "windshear", "severe turbulence", "carburetor icing conditions"}[rng.Intn(4)],
			severity(inc.Damage), inc.DamagedPart))
	case CauseBird:
		paras = append(paras, fmt.Sprintf(
			"Shortly after %s, the %s struck %s. The impact shattered portions of the airframe and resulted in "+
				"%s damage to the %s. Bird remains were recovered from the wreckage.",
			inc.Phase, strings.ToLower(inc.Category),
			[]string{"a flock of geese", "a large bird", "several birds"}[rng.Intn(3)],
			severity(inc.Damage), inc.DamagedPart))
	case CauseMaintenance:
		paras = append(paras, fmt.Sprintf(
			"Review of the maintenance records revealed that the most recent annual inspection was completed %d months "+
				"before the accident. During %s, a mechanical failure attributed to improper maintenance occurred, and "+
				"the aircraft sustained %s damage to the %s.",
			13+rng.Intn(12), inc.Phase, severity(inc.Damage), inc.DamagedPart))
	case CauseMidair:
		paras = append(paras, fmt.Sprintf(
			"While maneuvering in the traffic pattern, the airplane collided with another airplane. "+
				"Both aircraft sustained substantial damage; this report addresses %s, which sustained %s damage to the %s. "+
				"Neither pilot reported seeing the other aircraft before the collision.",
			inc.Registration, severity(inc.Damage), inc.DamagedPart))
	}

	if inc.Fire {
		paras = append(paras, "A post-crash fire ensued and consumed portions of the airframe before first responders extinguished it.")
	}
	if inc.EngineMention {
		paras = append(paras, "A post-accident examination of the engine revealed no pre-impact anomalies, "+
			"and the engine produced power during a subsequent test run.")
	}
	if inc.StudentPilot {
		paras = append(paras, "The student pilot was conducting a supervised solo flight at the time of the accident.")
	}
	return paras
}

// severity phrases the damage level for narrative text ("extensive
// damage to the left wing" rather than "destroyed damage to ...").
func severity(damage string) string {
	switch damage {
	case "Destroyed":
		return "extensive"
	case "Minor":
		return "minor"
	default:
		return "substantial"
	}
}

func damageVerb(inc *Incident) string {
	switch inc.Damage {
	case "Destroyed":
		return "destroyed when it impacted terrain"
	case "Minor":
		return "involved in an accident"
	default:
		return "substantially damaged when it was involved in an accident"
	}
}

func imcClause(inc *Incident) string {
	if strings.Contains(inc.Conditions, "IMC") {
		return ", with instrument meteorological conditions prevailing"
	}
	return ""
}

func gerund(phase string) string {
	switch phase {
	case "takeoff":
		return "departing"
	case "landing":
		return "landing"
	case "approach":
		return "on approach"
	case "cruise":
		return "in cruise flight"
	default:
		return "maneuvering"
	}
}

// probableCause writes the formal cause statement (the llmExtract target
// for the probable_cause field).
func probableCause(inc *Incident) string {
	switch inc.Cause {
	case CauseEngine:
		return "A total loss of engine power due to the failure of an internal engine component, " +
			"which resulted in a forced landing."
	case CauseFuel:
		return "The pilot's inadequate fuel planning, which resulted in a loss of engine power due to " +
			"fuel exhaustion and a subsequent forced landing."
	case CausePilot:
		if inc.Water {
			return "The pilot's failure to maintain control, which resulted in a ditching into water."
		}
		return "The pilot's failure to maintain aircraft control, which resulted in a loss of control and impact with terrain."
	case CauseWeather:
		return "An encounter with gusting wind conditions that exceeded the aircraft's crosswind capability, " +
			"resulting in a loss of control. Contributing was the pilot's decision to continue flight into " +
			"deteriorating weather."
	case CauseBird:
		return "An in-flight collision with birds, which resulted in structural damage to the airframe."
	case CauseMaintenance:
		return "Maintenance personnel's improper maintenance practices, which resulted in an in-flight " +
			"mechanical failure."
	case CauseMidair:
		return "Both pilots' inadequate visual lookout, which resulted in a midair collision in the traffic pattern."
	default:
		return "Undetermined."
	}
}

// Corpus is a generated corpus's ground truth. Its reports are not kept:
// Blobs renders each one from its incident when it is asked for.
type Corpus struct {
	Incidents []Incident
}

// GenerateCorpus generates n accidents' worth of incidents, the ground
// truth that Blobs renders the report documents from.
func GenerateCorpus(n int, seed int64) (*Corpus, error) {
	return &Corpus{Incidents: GenerateIncidents(n, seed)}, nil
}

// Blobs renders every report (BuildReport) and encodes it to its rawdoc
// binary, keyed by report ID. It runs on runtime.GOMAXPROCS(0) workers,
// each of which drops a rendered report once it is encoded; the bytes do
// not depend on the worker count.
func (c *Corpus) Blobs() (map[string][]byte, error) {
	blobs := make([][]byte, len(c.Incidents))
	errs := make([]error, len(c.Incidents))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(c.Incidents)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(blobs); i = int(next.Add(1) - 1) {
				blobs[i], errs[i] = BuildReport(&c.Incidents[i]).Encode()
			}
		}()
	}
	wg.Wait()
	out := make(map[string][]byte, len(blobs))
	for i, blob := range blobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("ntsb: encode %s: %w", c.Incidents[i].ReportID, errs[i])
		}
		out[c.Incidents[i].ReportID] = blob
	}
	return out, nil
}

// StateAbbrev returns the incident's USPS state code.
func (in *Incident) StateAbbrev() string { return llm.StateAbbrev(in.State) }
