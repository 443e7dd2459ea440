package experiments

import (
	"fmt"
	"io"
	"sort"
)

// IDs lists the available experiment identifiers.
func IDs() []string {
	out := make([]string, len(figures))
	for i, f := range figures {
		out[i] = f.id
	}
	sort.Strings(out)
	return out
}

// run is the one driver: it builds the shared fixture, fills a report
// per requested figure, and removes the scratch directory.
func run(sc Scale, figs []figure) ([]*Report, *fixture, error) {
	fx, err := newFixture(sc)
	if err != nil {
		return nil, nil, err
	}
	defer fx.sc.cleanup()
	reports := make([]*Report, 0, len(figs))
	for _, f := range figs {
		r := &Report{ID: f.id, Title: f.title, Columns: f.columns}
		if err := f.fill(fx, r); err != nil {
			return reports, fx, fmt.Errorf("experiments: %s: %w", f.id, err)
		}
		reports = append(reports, r)
	}
	return reports, fx, nil
}

// Run executes one experiment by ID.
func Run(id string, sc Scale) (*Report, error) {
	for _, f := range figures {
		if f.id != id {
			continue
		}
		reports, _, err := run(sc, []figure{f})
		if err != nil {
			return nil, err
		}
		return reports[0], nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// All runs every experiment in paper order over one shared fixture.
func All(sc Scale) ([]*Report, error) {
	reports, _, err := run(sc, figures)
	return reports, err
}

// PrintAll runs and prints every experiment.
func PrintAll(w io.Writer, sc Scale) error {
	reports, err := All(sc)
	for _, r := range reports {
		if perr := r.Print(w); perr != nil {
			return perr
		}
	}
	return err
}
