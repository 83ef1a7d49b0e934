package p2psize

import (
	"fmt"
	"strings"
	"testing"
)

// TestClusterRosterRejectsSnapshot: a snapshot-based family named in a
// live roster is an error naming it; no selector means the default
// roster.
func TestClusterRosterRejectsSnapshot(t *testing.T) {
	const want = `p2psize: estimator "idspace" cannot run over a live transport (snapshot-based)`
	if _, err := clusterRoster([]string{"sc", "ids"}); err == nil || err.Error() != want {
		t.Errorf("clusterRoster(sc, ids) err = %v, want %q", err, want)
	}
	ds, err := clusterRoster(nil)
	if err != nil || len(ds) != len(DefaultEstimators()) {
		t.Fatalf("clusterRoster(nil) = %v, %v; want the default roster", ds, err)
	}
	for i, d := range ds {
		if d.Name != DefaultEstimators()[i] {
			t.Errorf("clusterRoster(nil)[%d] = %s, want %s", i, d.Name, DefaultEstimators()[i])
		}
	}
}

// TestRunClusterRejectsBadOptions: an option out of range fails before
// the plan is built or any daemon starts (no progress line is logged),
// with an error that names the field.
func TestRunClusterRejectsBadOptions(t *testing.T) {
	for _, c := range []struct {
		name  string
		edit  func(*ClusterOptions)
		field string
	}{
		{"one node", func(o *ClusterOptions) { o.Nodes = 1 }, "Nodes"},
		{"no nodes", func(o *ClusterOptions) { o.Nodes = 0 }, "Nodes"},
		{"negative samples", func(o *ClusterOptions) { o.Samples = -1 }, "ClusterOptions.Samples"},
	} {
		var logged []string
		opts := ClusterOptions{
			Nodes: 4, Estimators: []string{"sc"},
			Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
		}
		c.edit(&opts)
		if err := opts.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", c.name, err, c.field)
		}
		rep, err := RunCluster(opts)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: RunCluster err = %v, want an error naming %s", c.name, err, c.field)
		}
		if rep != nil || len(logged) > 0 {
			t.Errorf("%s: the run started: report %v, log %q", c.name, rep, logged)
		}
	}
	// Zero means the default in every field but Nodes.
	if err := (ClusterOptions{Nodes: 2}).Validate(); err != nil {
		t.Errorf("the defaults are rejected: %v", err)
	}
	if err := (ClusterOptions{Nodes: 2, Samples: 1}).Validate(); err != nil {
		t.Errorf("in-range options are rejected: %v", err)
	}
}
