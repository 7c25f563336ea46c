package mpi

import "time"

// SetPlantEarlyDone arms (or disarms) a planted bug for the tests of
// package mpi_test, which drive it through the core executor: the tcp
// writer hands a batch's lent payloads back to their senders before it
// writes them, and writes them a moment later. Call it while no world
// is running.
func SetPlantEarlyDone(on bool) {
	if !on {
		testHookBeforeWrite = nil
		return
	}
	testHookBeforeWrite = func(batch []envelope) {
		for i := range batch {
			if batch[i].zc != nil {
				release(&batch[i], nil)
				batch[i] = envelope{}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// RaceEnabled reports whether the race detector is compiled in.
func RaceEnabled() bool { return raceEnabled }
