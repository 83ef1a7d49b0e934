package experiments

import "testing"

func assertOrder(t *testing.T, ids []string, order []int, want []string) {
	t.Helper()
	for i, idx := range order {
		if ids[idx] != want[i] {
			got := make([]string, len(order))
			for j, o := range order {
				got[j] = ids[o]
			}
			t.Fatalf("schedule order = %v, want %v", got, want)
		}
	}
}

// TestScheduleOrderLongestFirst checks the costHint table schedules
// the dominating experiments first while ties — ids without a row
// included — keep submission order.
func TestScheduleOrderLongestFirst(t *testing.T) {
	ids := []string{"fig01", "fig15", "fig03", "trace-weibull", "fig16"}
	assertOrder(t, ids, scheduleOrder(ids),
		[]string{"fig15", "fig16", "trace-weibull", "fig01", "fig03"})
}

// TestCostHintsNameRegisteredIDs keeps the table honest across
// deletions: a row whose experiment is gone would rank nothing.
func TestCostHintsNameRegisteredIDs(t *testing.T) {
	for id := range costHint {
		if _, ok := Get(id); !ok {
			t.Errorf("costHint has a row for %q, which is not a registered experiment", id)
		}
	}
}

// TestRunSuiteReportKeepsSubmissionOrder checks LJF execution does not
// leak into the report: entries stay in submission (id) order.
func TestRunSuiteReportKeepsSubmissionOrder(t *testing.T) {
	ids := []string{"fig01", "fig15", "fig05"}
	report, figs, err := RunSuite(ids, determinismParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Experiments) != len(ids) {
		t.Fatalf("entry count = %d", len(report.Experiments))
	}
	for i, id := range ids {
		if report.Experiments[i].ID != id {
			t.Fatalf("entry %d is %q, want %q (execution order leaked into the report)",
				i, report.Experiments[i].ID, id)
		}
		if figs[id] == nil {
			t.Fatalf("figure %q missing", id)
		}
	}
}
