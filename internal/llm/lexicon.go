package llm

import "strings"

// This file is the Sim's "world knowledge": the lexical associations a
// pretrained model brings to a task. It is intentionally generic (not tuned
// to any benchmark question) — domain synonym sets plus US geography.

// stopwords excluded from predicate/content matching.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "did": true, "do": true, "does": true, "for": true,
	"from": true, "had": true, "has": true, "have": true, "in": true,
	"indicate": true, "involve": true, "involved": true, "involving": true,
	"is": true, "it": true, "its": true, "of": true, "on": true, "or": true,
	"that": true, "the": true, "their": true, "there": true, "this": true,
	"to": true, "was": true, "were": true, "with": true, "due": true,
	"document": true, "report": true, "incident": true, "incidents": true,
	"accident": true, "aircraft": true, "any": true, "occur": true,
	"occurred": true, "following": true, "mention": true, "describe": true,
	"describes": true, "which": true, "what": true, "how": true, "many": true,
	"who": true, "where": true, "when": true, "all": true, "into": true,
}

// IsStopword reports whether tok carries no content for matching purposes.
func IsStopword(tok string) bool { return stopwords[tok] }

// synonyms expands a content token into related surface forms. Mirrors the
// associative recall of a language model; deliberately recall-biased, which
// is what makes llmFilter "occasionally too generous" (§7.2).
var synonyms = map[string][]string{
	"engine":      {"powerplant", "cylinder", "carburetor", "crankshaft", "rpm", "engines", "turbine"},
	"engines":     {"engine", "powerplant"},
	"bird":        {"birds", "goose", "geese", "avian", "flock", "waterfowl"},
	"birds":       {"bird", "goose", "geese", "avian", "flock", "waterfowl"},
	"weather":     {"wind", "gust", "icing", "fog", "thunderstorm", "turbulence", "crosswind", "windshear"},
	"fuel":        {"gasoline", "avgas", "tank", "exhaustion", "starvation", "contamination"},
	"fire":        {"flames", "smoke", "burned", "burning", "postcrash"},
	"damage":      {"damaged", "destroyed", "substantial", "wreckage"},
	"damaged":     {"damage", "destroyed", "substantial"},
	"injury":      {"injuries", "injured", "fatal", "serious", "minor"},
	"injuries":    {"injury", "injured", "fatal", "serious", "minor"},
	"fatal":       {"fatality", "fatalities", "killed", "died"},
	"fatalities":  {"fatal", "fatality", "killed", "died"},
	"fatality":    {"fatal", "fatalities", "killed", "died"},
	"landing":     {"landed", "touchdown", "runway", "flare"},
	"takeoff":     {"departure", "departed", "liftoff", "rotation"},
	"student":     {"instructional", "trainee", "solo", "instructor"},
	"maintenance": {"mechanic", "overhaul", "inspection", "annual"},
	"water":       {"lake", "river", "ocean", "ditching", "ditched"},
	"gear":        {"landing gear", "wheel", "strut", "collapsed"},
	"wing":        {"wings", "aileron", "spar", "wingtip"},
	"propeller":   {"prop", "blade", "blades"},
	"pilot":       {"airman", "aviator", "crew"},
	"helicopter":  {"rotorcraft", "rotor"},
	"power":       {"thrust", "rpm"},
	"loss":        {"lost", "failure", "failed"},
	"failure":     {"failed", "malfunction", "loss"},
	"mountain":    {"terrain", "ridge", "canyon"},
	"night":       {"dark", "dusk"},
	"ice":         {"icing", "frost"},
	"stall":       {"stalled", "aerodynamic stall", "spin"},
	"problem":     {"problems", "failure", "malfunction", "issue", "trouble"},
	"problems":    {"problem", "failure", "malfunction", "issue", "trouble"},
}

// Expand returns tok plus its synonym set (lower-cased).
func Expand(tok string) []string {
	tok = strings.ToLower(tok)
	out := []string{tok}
	out = append(out, synonyms[tok]...)
	return out
}

// usStates maps full state names to USPS abbreviations.
var usStates = map[string]string{
	"alabama": "AL", "alaska": "AK", "arizona": "AZ", "arkansas": "AR",
	"california": "CA", "colorado": "CO", "connecticut": "CT", "delaware": "DE",
	"florida": "FL", "georgia": "GA", "hawaii": "HI", "idaho": "ID",
	"illinois": "IL", "indiana": "IN", "iowa": "IA", "kansas": "KS",
	"kentucky": "KY", "louisiana": "LA", "maine": "ME", "maryland": "MD",
	"massachusetts": "MA", "michigan": "MI", "minnesota": "MN", "mississippi": "MS",
	"missouri": "MO", "montana": "MT", "nebraska": "NE", "nevada": "NV",
	"new hampshire": "NH", "new jersey": "NJ", "new mexico": "NM", "new york": "NY",
	"north carolina": "NC", "north dakota": "ND", "ohio": "OH", "oklahoma": "OK",
	"oregon": "OR", "pennsylvania": "PA", "rhode island": "RI", "south carolina": "SC",
	"south dakota": "SD", "tennessee": "TN", "texas": "TX", "utah": "UT",
	"vermont": "VT", "virginia": "VA", "washington": "WA", "west virginia": "WV",
	"wisconsin": "WI", "wyoming": "WY",
}

// StateAbbrev resolves a state name or abbreviation to its USPS code
// ("" if unrecognized).
func StateAbbrev(s string) string {
	s = strings.TrimSpace(strings.ToLower(s))
	if ab, ok := usStates[s]; ok {
		return ab
	}
	up := strings.ToUpper(s)
	if len(up) == 2 {
		for _, ab := range usStates {
			if ab == up {
				return ab
			}
		}
	}
	return ""
}

// StateOfLocation extracts the US state from a "City, State" location
// string ("" if none found).
func StateOfLocation(loc string) string {
	parts := strings.Split(loc, ",")
	for i := len(parts) - 1; i >= 0; i-- {
		if ab := StateAbbrev(parts[i]); ab != "" {
			return ab
		}
	}
	// Fall back to scanning for any state name in the string.
	low := strings.ToLower(loc)
	for name, ab := range usStates {
		if strings.Contains(low, name) {
			return ab
		}
	}
	return ""
}

// ContentTokens tokenizes text and strips stopwords.
func ContentTokens(text string) []string {
	var out []string
	for _, t := range Tokenize(text) {
		if !IsStopword(t) {
			out = append(out, t)
		}
	}
	return out
}
