package experiments

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"ddr/internal/mpi"
)

// rendezvousWait bounds how long a role waits for the other
// application's addresses; rendezvousPoll is how often it looks.
const (
	rendezvousWait = 2 * time.Minute
	rendezvousPoll = 20 * time.Millisecond
)

// RunInTransitRole runs one of the pipeline's two applications, launched
// separately (separate processes, possibly separate machines): the
// deployment shape the paper's in-transit frameworks (GLEAN, ADIOS)
// serve. Role "sim" hosts world ranks [0, M), the producers, and "viz"
// hosts [M, M+N), the consumers. Each hosted rank gets its own TCP
// endpoint bound on bind, an address the other application can reach
// (e.g. "127.0.0.1:0"). The two roles trade their endpoints' addresses
// through files beside rendezvous (see exchangeAddrs), so either may
// start first. Every rank then joins one M+N world and runs the rank body
// RunInTransit runs. The first rank to fail closes every hosted endpoint,
// so the role's other ranks fail too instead of waiting on it. The viz
// role returns the consumer-side accounting; the sim role returns nil.
//
// The roles join over tcp only, with no fault injector, and a trace
// merge would be a collective across both applications: cfg.Transport
// must be "" or "tcp", and cfg.Telemetry must not set MergeOut.
func RunInTransitRole(cfg InTransitConfig, role, bind, rendezvous string) (*InTransitResult, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	lo, hi, other := 0, cfg.M, "viz"
	switch role {
	case "sim":
	case "viz":
		lo, hi, other = cfg.M, cfg.M+cfg.N, "sim"
	default:
		return nil, fmt.Errorf("experiments: unknown role %q (have sim, viz)", role)
	}
	if rendezvous == "" {
		return nil, errors.New("experiments: a split role needs a rendezvous path")
	}
	if cfg.Transport != "" && cfg.Transport != "tcp" {
		return nil, fmt.Errorf("experiments: role %s joins over tcp, not transport %q", role, cfg.Transport)
	}
	if cfg.Telemetry != nil && cfg.Telemetry.MergeOut != "" {
		return nil, errors.New("experiments: a trace merge spans both applications; run it with both roles in one process")
	}

	eps := make([]*mpi.TCPEndpoint, 0, hi-lo)
	closeAll := func() {
		for _, ep := range eps {
			ep.Close()
		}
	}
	defer closeAll()
	mine := make([]string, 0, hi-lo)
	for range hi - lo {
		ep, err := mpi.NewTCPEndpoint(bind)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		mine = append(mine, ep.Addr())
	}
	theirs, err := exchangeAddrs(rendezvous, role, other, mine, cfg.M+cfg.N-len(mine))
	if err != nil {
		return nil, err
	}
	// World rank order: the sim's ranks, then the viz's.
	addrs := slices.Concat(theirs[:lo], mine, theirs[lo:])

	worlds := make([]*mpi.Comm, len(eps))
	for i, ep := range eps {
		if worlds[i], err = ep.Join(lo+i, addrs); err != nil {
			return nil, err
		}
	}
	var (
		wg      sync.WaitGroup
		failed  sync.Once
		results = make([]*InTransitResult, len(eps))
		errs    = make([]error, len(eps))
	)
	for i, world := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = inTransitRank(world, cfg)
			if errs[i] != nil {
				errs[i] = fmt.Errorf("rank %d: %w", lo+i, errs[i])
				failed.Do(closeAll)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// The viz role's first rank is consumer rank 0, the one with a result.
	return results[0], nil
}

// exchangeAddrs trades this role's endpoint addresses for the other
// role's through two files beside path. It writes mine to path.<role>
// (a temporary file renamed into place, so a reader never sees half of
// it), then polls for path.<other>, reads it and removes it. It expects
// want addresses there and gives up after rendezvousWait, taking its own
// file back. A path.<other> that an aborted run left behind names dead
// endpoints, and the run fails on its first dial to them.
func exchangeAddrs(path, role, other string, mine []string, want int) ([]string, error) {
	own := path + "." + role
	if err := os.WriteFile(own+".tmp", []byte(strings.Join(mine, "\n")+"\n"), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(own+".tmp", own); err != nil {
		return nil, err
	}
	theirs := path + "." + other
	deadline := time.Now().Add(rendezvousWait)
	for {
		data, err := os.ReadFile(theirs)
		if err == nil {
			os.Remove(theirs) //nolint:errcheck // best effort: the addresses are read, and a later run only finds them dead
			addrs := strings.Fields(string(data))
			if len(addrs) != want {
				return nil, fmt.Errorf("experiments: %s lists %d %s addresses, want %d (do both roles run the same -sim and -viz?)",
					theirs, len(addrs), other, want)
			}
			return addrs, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		if time.Now().After(deadline) {
			os.Remove(own) //nolint:errcheck // best effort: no partner came to read it
			return nil, fmt.Errorf("experiments: no %s role wrote %s within %v", other, theirs, rendezvousWait)
		}
		time.Sleep(rendezvousPoll)
	}
}
