//go:build race

package transit

func init() { raceEnabled = true }
