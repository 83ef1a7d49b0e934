package p2psize

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

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
		{"one address", func(o *ClusterOptions) { o.Addrs = []string{"127.0.0.1:9"} }, "Nodes"},
		{"negative samples", func(o *ClusterOptions) { o.Samples = -1 }, "ClusterOptions.Samples"},
		{"negative cadence", func(o *ClusterOptions) { o.Cadence = -5 }, "ClusterOptions.Cadence"},
		{"NaN cadence", func(o *ClusterOptions) { o.Cadence = math.NaN() }, "ClusterOptions.Cadence"},
		{"infinite cadence", func(o *ClusterOptions) { o.Cadence = math.Inf(1) }, "ClusterOptions.Cadence"},
		{"NaN tolerance", func(o *ClusterOptions) { o.Tolerance = math.NaN() }, "ClusterOptions.Tolerance"},
		{"negative tolerance", func(o *ClusterOptions) { o.Tolerance = -1 }, "ClusterOptions.Tolerance"},
		{"infinite tolerance", func(o *ClusterOptions) { o.Tolerance = math.Inf(1) }, "ClusterOptions.Tolerance"},
		{"negative RTO", func(o *ClusterOptions) { o.RTO = -time.Millisecond }, "ClusterOptions.RTO"},
		{"negative retries", func(o *ClusterOptions) { o.Retries = -1 }, "ClusterOptions.Retries"},
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
	if err := (ClusterOptions{Addrs: []string{"a:1", "b:2"}, Samples: 1, Cadence: 0.5, Tolerance: 0.1, RTO: time.Second, Retries: 1}).Validate(); err != nil {
		t.Errorf("in-range options are rejected: %v", err)
	}
}
