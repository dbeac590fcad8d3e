package ntsb

import (
	"fmt"
	"math/rand"
	"time"
)

// Cause categorizes the accident's primary cause.
type Cause string

// Cause categories.
const (
	CauseEngine      Cause = "engine"      // mechanical powerplant failure
	CauseFuel        Cause = "fuel"        // exhaustion/contamination (engine stops, but cause is fuel management)
	CausePilot       Cause = "pilot"       // loss of control, judgment
	CauseWeather     Cause = "weather"     // wind, icing, IMC
	CauseBird        Cause = "bird"        // bird strike
	CauseMaintenance Cause = "maintenance" // improper maintenance
	CauseMidair      Cause = "midair"      // midair collision (multi-aircraft)
)

// Incident is the ground-truth record behind one report document.
type Incident struct {
	// ReportID uniquely identifies the report (one per aircraft).
	ReportID string
	// AccidentNumber is shared by reports of the same accident: the unit
	// "how many incidents" questions should count.
	AccidentNumber string
	City           string
	State          string // full name, e.g. "Kentucky"
	Date           time.Time
	Aircraft       string // "Piper PA-38-112"
	Manufacturer   string
	Category       string // Airplane | Helicopter | Glider
	Registration   string
	Damage         string // Destroyed | Substantial | Minor | None
	Engines        int
	EngineType     string
	Cause          Cause
	DamagedPart    string
	InjuryText     string // e.g. "1 Fatal, 1 Minor" or "None"
	Fatal          int
	Serious        int
	Minor          int
	WeatherRelated bool
	BirdStrike     bool
	Fire           bool
	Water          bool // ditching / water impact
	StudentPilot   bool
	Night          bool
	Phase          string // takeoff | cruise | approach | landing | maneuvering
	PartRegulation string // "Part 91: General aviation" etc.
	PilotCert      string
	PilotHours     int
	Conditions     string // VMC | IMC
	Visibility     float64
	WindSpeed      int
	WindGust       int
	Temperature    float64
	Operator       string
	Departure      string
	Destination    string
	// EngineMention is true when the narrative discusses the engine even
	// though the cause is elsewhere ("examination revealed no anomalies").
	EngineMention bool
}

// Month returns the incident's month name (e.g. "July").
func (in *Incident) Month() string { return in.Date.Month().String() }

// aircraft types: manufacturer, model, category, engines, engine type.
type acType struct {
	mfr, model, category, engineType string
	engines                          int
}

var aircraftTypes = []acType{
	{"Cessna", "172S", "Airplane", "Reciprocating", 1},
	{"Cessna", "182T", "Airplane", "Reciprocating", 1},
	{"Cessna", "150M", "Airplane", "Reciprocating", 1},
	{"Piper", "PA-28-140", "Airplane", "Reciprocating", 1},
	{"Piper", "PA-38-112", "Airplane", "Reciprocating", 1},
	{"Piper", "PA-18", "Airplane", "Reciprocating", 1},
	{"Beech", "A36", "Airplane", "Reciprocating", 1},
	{"Beech", "58", "Airplane", "Reciprocating", 2},
	{"Cirrus", "SR22", "Airplane", "Reciprocating", 1},
	{"Mooney", "M20J", "Airplane", "Reciprocating", 1},
	{"Robinson", "R44", "Helicopter", "Reciprocating", 1},
	{"Robinson", "R22", "Helicopter", "Reciprocating", 1},
	{"Bell", "206", "Helicopter", "Turbo shaft", 1},
	{"Schweizer", "SGS 2-33A", "Glider", "None", 0},
	{"Air Tractor", "AT-502B", "Airplane", "Turbo prop", 1},
}

// cityState pairs exclude Hawaii so "incidents in Hawaii" is zero, as in
// the paper's RAG-success case.
var cityStates = [][2]string{
	{"Gilbertsville", "Kentucky"}, {"Lexington", "Kentucky"},
	{"Mesa", "Arizona"}, {"Tucson", "Arizona"},
	{"Fresno", "California"}, {"Redding", "California"}, {"Lancaster", "California"},
	{"Dallas", "Texas"}, {"Lubbock", "Texas"}, {"Abilene", "Texas"},
	{"Ocala", "Florida"}, {"Sebring", "Florida"},
	{"Anchorage", "Alaska"}, {"Palmer", "Alaska"}, {"Talkeetna", "Alaska"},
	{"Reno", "Nevada"}, {"Elko", "Nevada"},
	{"Bend", "Oregon"}, {"Salem", "Oregon"},
	{"Olympia", "Washington"}, {"Yakima", "Washington"},
	{"Greeley", "Colorado"}, {"Durango", "Colorado"},
	{"Bozeman", "Montana"}, {"Kalispell", "Montana"},
	{"Ames", "Iowa"}, {"Dubuque", "Iowa"},
	{"Rome", "Georgia"}, {"Valdosta", "Georgia"},
	{"Utica", "New York"}, {"Elmira", "New York"},
	{"Winchester", "Virginia"}, {"Danville", "Virginia"},
	{"Marion", "Ohio"}, {"Findlay", "Ohio"},
	{"Jackson", "Tennessee"}, {"Cookeville", "Tennessee"},
	{"Kenosha", "Wisconsin"}, {"Wausau", "Wisconsin"},
	{"Gallup", "New Mexico"}, {"Roswell", "New Mexico"},
	{"Enid", "Oklahoma"}, {"Ardmore", "Oklahoma"},
}

var damagedParts = []string{
	"left wing", "right wing", "fuselage", "empennage", "landing gear",
	"propeller", "firewall", "horizontal stabilizer", "nose gear", "engine mount",
}

var phases = []string{"takeoff", "cruise", "approach", "landing", "maneuvering"}

var operators = []string{
	"On file", "Private individual", "Sun Valley Aviation LLC", "Bluegrass Flying Club",
	"Anderson Aviation LLC", "High Desert Helicopters", "Pioneer Flight Academy",
	"Lakeshore Aero Services", "Canyon Air Works",
}

var regions = []string{"CEN", "ERA", "WPR", "DCA"}

// GenerateIncidents produces n accidents (a few of which involve two
// aircraft and therefore yield more than n reports), deterministically
// from the seed. The returned slice has one entry per report document.
func GenerateIncidents(n int, seed int64) []Incident {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	var out []Incident

	// Multi-aircraft accidents: ~3% of accidents are midair collisions
	// producing two reports with a shared accident number.
	nPairs := n / 33
	if nPairs == 0 && n >= 20 {
		nPairs = 1
	}
	pairAt := map[int]bool{}
	for p := 0; p < nPairs; p++ {
		pairAt[7+p*31] = true // deterministic, spread out
	}

	regIdx := 0
	for i := 0; i < n; i++ {
		acc := fmt.Sprintf("%s24LA%03d", regions[i%len(regions)], 100+i)
		date := base.Add(time.Duration(rng.Intn(122)) * 24 * time.Hour) // Jun 1 - Sep 30
		if pairAt[i] {
			a := makeIncident(rng, acc, acc+"A", date, &regIdx)
			b := makeIncident(rng, acc, acc+"B", date, &regIdx)
			// One Cessna and one Beech, both single-engine airplanes: the
			// engines-breakdown question double-counts the accident (§7.2)
			// while per-manufacturer counts stay accident-consistent.
			pairTypes := [2]acType{aircraftTypes[0], aircraftTypes[6]}
			for j, inc := range []*Incident{&a, &b} {
				inc.Cause = CauseMidair
				inc.City, inc.State = a.City, a.State
				inc.Damage = "Substantial"
				inc.Fatal, inc.Serious, inc.Minor = 0, 0, 1
				inc.InjuryText = "1 Minor"
				inc.BirdStrike, inc.Fire, inc.Water, inc.StudentPilot, inc.Night = false, false, false, false, false
				inc.WeatherRelated = false
				inc.Conditions = "Visual (VMC)"
				inc.WindGust = 0
				inc.PartRegulation = "Part 91: General aviation"
				if inc.PilotCert == "Student" {
					inc.PilotCert = "Private"
				}
				// Avoid July so list questions about July stay unaffected.
				if inc.Date.Month() == time.July {
					inc.Date = inc.Date.AddDate(0, 1, 0)
				}
				applyType(inc, pairTypes[j], rng)
			}
			out = append(out, a, b)
			continue
		}
		inc := makeIncident(rng, acc, acc, date, &regIdx)
		out = append(out, inc)
	}

	// Pin exactly two July bird strikes (the paper's list-question case):
	// clear any accidental ones, then force two single-aircraft incidents.
	julyBirds := 0
	for idx := range out {
		if out[idx].BirdStrike && out[idx].Date.Month() == time.July {
			julyBirds++
			if julyBirds > 2 {
				out[idx].Date = out[idx].Date.AddDate(0, -1, 0)
				julyBirds--
			}
		}
	}
	for idx := 0; julyBirds < 2 && idx < len(out); idx++ {
		inc := &out[idx]
		if inc.Cause == CauseMidair || inc.BirdStrike {
			continue
		}
		setCause(inc, CauseBird, rand.New(rand.NewSource(seed+int64(idx))))
		inc.Date = time.Date(2024, 7, 3+julyBirds*9, 14, 30, 0, 0, time.UTC)
		julyBirds++
	}
	return out
}

// skewIdx draws an index biased toward the front of the range, giving the
// corpus realistic non-uniform geography and part-damage distributions
// (stable arg-max answers for "which state had the most incidents" and
// well-separated top-3 part counts).
func skewIdx(rng *rand.Rand, n int) int {
	r := rng.Float64()
	i := int(r * r * r * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

func makeIncident(rng *rand.Rand, accNum, reportID string, date time.Time, regIdx *int) Incident {
	cs := cityStates[skewIdx(rng, len(cityStates))]
	inc := Incident{
		ReportID:       reportID,
		AccidentNumber: accNum,
		City:           cs[0],
		State:          cs[1],
		Date:           date.Add(time.Duration(8+rng.Intn(12)) * time.Hour),
		Phase:          phases[rng.Intn(len(phases))],
		Operator:       operators[rng.Intn(len(operators))],
		PilotHours:     40 + rng.Intn(12000),
		Visibility:     []float64{10, 10, 10, 7, 5, 3, 1}[rng.Intn(7)],
		WindSpeed:      rng.Intn(22),
		Temperature:    8 + float64(rng.Float64()*28),
	}
	*regIdx++
	inc.Registration = fmt.Sprintf("N%d%c%c", 100+rng.Intn(900), 'A'+rune(rng.Intn(26)), 'A'+rune(rng.Intn(26)))
	applyType(&inc, aircraftTypes[rng.Intn(len(aircraftTypes))], rng)

	// Cause mix.
	c := rng.Float64()
	switch {
	case c < 0.16:
		setCause(&inc, CauseEngine, rng)
	case c < 0.30:
		setCause(&inc, CauseFuel, rng)
	case c < 0.58:
		setCause(&inc, CausePilot, rng)
	case c < 0.74:
		setCause(&inc, CauseWeather, rng)
	case c < 0.79:
		setCause(&inc, CauseBird, rng)
	case c < 0.88:
		setCause(&inc, CauseMaintenance, rng)
	default:
		setCause(&inc, CausePilot, rng)
		inc.Water = rng.Float64() < 0.5
	}

	// Damage: overwhelmingly substantial, as in the paper (94/100).
	d := rng.Float64()
	switch {
	case d < 0.94:
		inc.Damage = "Substantial"
	case d < 0.98:
		inc.Damage = "Destroyed"
	default:
		inc.Damage = "Minor"
	}
	inc.DamagedPart = damagedParts[skewIdx(rng, len(damagedParts))]

	// Injuries.
	r := rng.Float64()
	switch {
	case r < 0.08 || inc.Damage == "Destroyed" && r < 0.5:
		inc.Fatal = 1 + rng.Intn(2)
		inc.InjuryText = fmt.Sprintf("%d Fatal", inc.Fatal)
	case r < 0.25:
		inc.Serious = 1 + rng.Intn(3)
		inc.InjuryText = fmt.Sprintf("%d Serious", inc.Serious)
	case r < 0.45:
		inc.Minor = 1 + rng.Intn(2)
		inc.InjuryText = fmt.Sprintf("%d Minor", inc.Minor)
	default:
		inc.InjuryText = "None"
	}

	inc.StudentPilot = rng.Float64() < 0.10
	inc.Night = rng.Float64() < 0.12
	inc.Fire = inc.Fire || rng.Float64() < 0.07
	if inc.StudentPilot {
		inc.PilotCert = "Student"
		inc.PilotHours = 20 + rng.Intn(120)
	} else {
		inc.PilotCert = []string{"Private", "Private", "Commercial", "Airline transport"}[rng.Intn(4)]
	}
	if inc.Conditions == "" {
		inc.Conditions = "Visual (VMC)"
	}
	reg := []string{
		"Part 91: General aviation", "Part 91: General aviation", "Part 91: General aviation",
		"Part 137: Agricultural", "Part 135: Air taxi", "Part 91: Instructional",
	}[rng.Intn(6)]
	if inc.StudentPilot {
		reg = "Part 91: Instructional"
	}
	inc.PartRegulation = reg
	inc.Departure = fmt.Sprintf("%s, %s (%c%c%c)", inc.City, inc.State, 'A'+rune(rng.Intn(26)), 'A'+rune(rng.Intn(26)), 'A'+rune(rng.Intn(26)))
	dst := cityStates[rng.Intn(len(cityStates))]
	inc.Destination = fmt.Sprintf("%s, %s", dst[0], dst[1])

	// Most non-engine reports still examine the engine (the filter trap).
	if inc.Cause != CauseEngine && inc.Cause != CauseFuel && inc.Category != "Glider" {
		inc.EngineMention = rng.Float64() < 0.65
	}
	return inc
}

func applyType(inc *Incident, t acType, rng *rand.Rand) {
	inc.Manufacturer = t.mfr
	inc.Aircraft = t.mfr + " " + t.model
	inc.Category = t.category
	inc.Engines = t.engines
	inc.EngineType = t.engineType
}

func setCause(inc *Incident, c Cause, rng *rand.Rand) {
	inc.Cause = c
	switch c {
	case CauseWeather:
		inc.WeatherRelated = true
		inc.WindSpeed = 15 + rng.Intn(15)
		inc.WindGust = inc.WindSpeed + 4 + rng.Intn(8)
		if rng.Float64() < 0.35 {
			inc.Conditions = "Instrument (IMC)"
			// The inner conversion keeps Float64's inlined product out of a fused add.
			inc.Visibility = 0.5 + float64(float64(rng.Float64())*2)
		}
	case CauseBird:
		inc.BirdStrike = true
	case CauseEngine, CauseFuel:
		if inc.Category == "Glider" {
			// Gliders have no engine; re-roll as pilot cause.
			inc.Cause = CausePilot
		}
	}
}
