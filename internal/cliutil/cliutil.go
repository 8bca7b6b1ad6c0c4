// Package cliutil parses the placement and routing specifications shared
// by the command-line tools: the placement grammar covers the paper's
// families (the Definition 10 linear placements "linear[:c1,...,cd[:C]]",
// the §5 multiple-linear unions, Blaum et al.'s shifted diagonal, full,
// random, and explicit node lists) and the routing names map onto the §6/§7
// algorithms (odr, udr, their multi-path variants, far, and mesh ODR).
// Every cmd/* binary accepts the same spellings, so experiment invocations
// are copy-pastable between tools.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
)

// ParsePlacement turns a spec string into a placement.Spec:
//
//	linear            linear placement, residue 0
//	linear:C          linear placement, residue C
//	multi:T           multiple linear, residues 0..T-1
//	multi:T:START     multiple linear, residues START..START+T-1
//	diagonal[:SHIFT]  shifted diagonal
//	full              fully populated torus
//	random:N[:SEED]   N processors placed uniformly at random
func ParsePlacement(spec string) (placement.Spec, error) {
	name, rest, more := strings.Cut(spec, ":")
	// args holds the colon-separated fields after the name; fields past
	// the second are ignored.
	var args [2]string
	nargs := 0
	for ; more && nargs < len(args); nargs++ {
		args[nargs], rest, more = strings.Cut(rest, ":")
	}
	argInt := func(idx, def int) (int, error) {
		if nargs < idx {
			return def, nil
		}
		return strconv.Atoi(args[idx-1])
	}
	switch name {
	case "linear":
		c, err := argInt(1, 0)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad linear residue in %q: %v", spec, err)
		}
		return placement.Linear{C: c}, nil
	case "multi":
		if nargs < 1 {
			return nil, fmt.Errorf("cliutil: multi needs a count, e.g. multi:2")
		}
		t, err := strconv.Atoi(args[0])
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad multi count in %q: %v", spec, err)
		}
		start, err := argInt(2, 0)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad multi start in %q: %v", spec, err)
		}
		return placement.MultipleLinear{T: t, Start: start}, nil
	case "diagonal":
		shift, err := argInt(1, 0)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad diagonal shift in %q: %v", spec, err)
		}
		return placement.ShiftedDiagonal{Shift: shift}, nil
	case "full":
		return placement.Full{}, nil
	case "random":
		if nargs < 1 {
			return nil, fmt.Errorf("cliutil: random needs a count, e.g. random:12")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad random count in %q: %v", spec, err)
		}
		seed, err := argInt(2, 1)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad random seed in %q: %v", spec, err)
		}
		return placement.Random{Count: n, Seed: int64(seed)}, nil
	default:
		return nil, fmt.Errorf("cliutil: unknown placement %q (want linear|multi|diagonal|full|random)", name)
	}
}

// ParseRouting turns an algorithm name into a routing.Algorithm:
// odr, odr-multi, udr, udr-multi, or far (case-insensitive).
func ParseRouting(name string) (routing.Algorithm, error) {
	switch strings.ToLower(name) {
	case "odr":
		return routing.ODR{}, nil
	case "odr-multi", "odrmulti":
		return routing.ODRMulti{}, nil
	case "udr":
		return routing.UDR{}, nil
	case "udr-multi", "udrmulti":
		return routing.UDRMulti{}, nil
	case "far":
		return routing.FAR{}, nil
	default:
		return nil, fmt.Errorf("cliutil: unknown routing %q (want odr|odr-multi|udr|udr-multi|far)", name)
	}
}
