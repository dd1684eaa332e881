package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestE15PipecastAcceptance pins the pipelined communication layer's
// acceptance shape: on every family the measured pipelined convergecast
// stays within the height + k + 1 bound and beats the k-fold sequential
// repetition, both ledgers are reported, and — with the bootstrap and
// block-count sums now running message-level — the simulate-mode cap
// search still selects exactly the analytic mode's cap, with positive
// measured bootstrap rounds.
func TestE15PipecastAcceptance(t *testing.T) {
	tab := E15Pipecast([]int{6, 10}, []int{32}, []int{2, 4, 8}, 2018)
	if len(tab.Rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(tab.Rows))
	}
	col := func(name string) int {
		for ci, h := range tab.Header {
			if h == name {
				return ci
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	num := func(ri, ci int) int {
		v, err := strconv.Atoi(tab.Rows[ri][ci])
		if err != nil {
			t.Fatalf("row %d: column %q=%q not numeric", ri, tab.Header[ci], tab.Rows[ri][ci])
		}
		return v
	}
	fam, k := col("family"), col("k")
	rPipe, bound, rSeq := col("r_pipe"), col("bound"), col("r_seq")
	chgPipe, chgSeq := col("chg_pipe"), col("chg_seq")
	capSim, capAna, rBoot := col("cap_sim"), col("cap_ana"), col("r_boot")
	seen := map[string]bool{}
	for ri, row := range tab.Rows {
		seen[row[fam]] = true
		if num(ri, rPipe) > num(ri, bound) {
			t.Fatalf("row %d (%s): pipelined rounds %d exceed the height+k+1 bound %d",
				ri, row[fam], num(ri, rPipe), num(ri, bound))
		}
		if num(ri, k) >= 2 && num(ri, rPipe) >= num(ri, rSeq) {
			t.Fatalf("row %d (%s): pipelined %d rounds did not beat sequential %d",
				ri, row[fam], num(ri, rPipe), num(ri, rSeq))
		}
		if num(ri, chgPipe) < 1 || num(ri, chgSeq) < 1 {
			t.Fatalf("row %d (%s): analytic ledger columns not positive", ri, row[fam])
		}
		if num(ri, capSim) != num(ri, capAna) {
			t.Fatalf("row %d (%s): simulate cap %d != analytic cap %d with the measured bootstrap",
				ri, row[fam], num(ri, capSim), num(ri, capAna))
		}
		if num(ri, rBoot) < 1 {
			t.Fatalf("row %d (%s): no measured bootstrap rounds", ri, row[fam])
		}
	}
	for _, f := range []string{"grid", "wheel", "k5free"} {
		if !seen[f] {
			t.Fatalf("family %s missing from the table", f)
		}
	}
}

// TestRunnersRegistry: the registry behind cmd/allbench's -table flag and
// BenchmarkTables. IDs are unique and each entry names a headline metric;
// Select finds entries in the order asked and rejects unknown IDs; and
// every table regenerated through the registry keeps its declared ID and
// ends in a numeric headline cell, so the benchmark always has a figure to
// report.
func TestRunnersRegistry(t *testing.T) {
	runners := Runners()
	seen := map[string]bool{}
	for _, r := range runners {
		if seen[r.ID] {
			t.Fatalf("duplicate registry ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Metric == "" || r.Unit == "" {
			t.Fatalf("%s: missing headline metric or unit (%q, %q)", r.ID, r.Metric, r.Unit)
		}
	}
	if ids := IDs(); len(ids) != len(runners) {
		t.Fatalf("IDs/Runners length mismatch")
	}
	rs, err := Select("E15", "E6c")
	if err != nil || len(rs) != 2 || rs[0].ID != "E15" || rs[1].ID != "E6c" {
		t.Fatalf("Select(E15, E6c) = %v, %v", rs, err)
	}
	if _, err := Select("E5", "E99"); err == nil || !strings.Contains(err.Error(), "E99") {
		t.Fatalf("Select accepted an unknown table ID: %v", err)
	}
	if testing.Short() {
		t.Skip("registry table sweep skipped in -short mode")
	}
	for i, tab := range All(2018) {
		r := runners[i]
		if tab.ID != r.ID {
			t.Fatalf("runner %s produced table %s", r.ID, tab.ID)
		}
		if _, err := tab.Headline(r.Metric); err != nil {
			t.Fatal(err)
		}
	}
}
