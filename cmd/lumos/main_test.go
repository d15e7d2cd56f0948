package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"lumos/internal/server"
)

// fig7Args is the fig7 base as CLI flags: GPT-3 15B at TP2×PP2×DP1 with 4
// microbatches, profiled with seed 42.
var fig7Args = []string{"-model", "15b", "-tp", "2", "-pp", "2", "-dp", "1", "-mb", "4", "-seed", "42"}

// fig7Server is lumosd in process with the fig7 base registered as a
// seed-profiled "fig7" profile.
func fig7Server(t *testing.T) *server.Server {
	t.Helper()
	s := server.New(server.Config{Seed: 42})
	seed := uint64(42)
	post(t, s, "/v1/profiles", server.ProfileRequest{
		Name:       "fig7",
		Deployment: server.Deployment{Model: "15b", TP: 2, PP: 2, DP: 1, Microbatches: 4},
		Seed:       &seed,
	}, &server.ProfileInfo{})
	return s
}

// post sends body to lumosd and decodes its 2xx response into out.
func post(t *testing.T, h http.Handler, path string, body, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(b)))
	if rec.Code/100 != 2 {
		t.Fatalf("POST %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatal(err)
	}
}

// row is one printed table row: the scenario name or point key as
// printed, and the predicted-time and speedup columns ("-" on an
// infeasible row).
type row struct{ name, ms, speedup string }

// tableRows parses the rows printed under every line that starts with
// header. rowRE captures the name, time and speedup columns.
func tableRows(t *testing.T, out, header string, rowRE *regexp.Regexp) []row {
	t.Helper()
	var rows []row
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, header):
			in = true
		case line == "":
			in = false
		case in:
			m := rowRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparsed table row %q", line)
			}
			rows = append(rows, row{strings.TrimRight(m[1], " "), m[2], m[3]})
		}
	}
	return rows
}

// TestSweepMatchesLumosd runs `lumos sweep -top 0` in process and checks
// every printed row against lumosd's response to the same request.
func TestSweepMatchesLumosd(t *testing.T) {
	s := fig7Server(t)
	var out bytes.Buffer
	args := append(append([]string{}, fig7Args...), "-top", "0",
		"-tp-range", "1,2", "-pp-range", "1,2", "-dp-range", "1,2",
		"-schedule", "1f1b,interleaved2", "-fabric", "nvl72", "-degrade", "1,0.5", "-whatif")
	if err := cmdSweep(t.Context(), &out, args); err != nil {
		t.Fatal(err)
	}
	var resp server.SweepResponse
	post(t, s, "/v1/sweep", server.SweepRequest{
		Profile: "fig7", TPRange: []int{1, 2}, PPRange: []int{1, 2}, DPRange: []int{1, 2},
		Schedules: []string{"1f1b", "interleaved2"}, Fabrics: []string{"nvl72"}, Degrade: []float64{1, 0.5}, WhatIf: true,
	}, &resp)

	// The sweep's name column is 24 runes wide, and clip shortens a longer
	// name with "…".
	rows := tableRows(t, out.String(), "rank  scenario",
		regexp.MustCompile(`^ *(?:\d+|-)  (.{24}) \S+ +(?:\d+|-) +([\d.]+ms|-) +([\d.]+x|-) `))
	if len(rows) != len(resp.Results) || len(rows) != resp.Scenarios {
		t.Fatalf("CLI printed %d rows; lumosd listed %d of %d scenarios:\n%s", len(rows), len(resp.Results), resp.Scenarios, out.String())
	}
	infeasible := 0
	for i, r := range resp.Results {
		want := row{clip(r.Name, 24), "-", "-"}
		if r.Err == "" {
			want.ms, want.speedup = fmt.Sprintf("%.1fms", r.IterationMs), fmt.Sprintf("%.2fx", r.Speedup)
		} else {
			infeasible++
		}
		if got := rows[i]; got != want {
			t.Errorf("row %d: CLI %+v, lumosd %+v", i+1, got, want)
		}
	}
	if infeasible == 0 || infeasible == len(rows) {
		t.Fatalf("%d of %d rows infeasible; want a mixed table", infeasible, len(rows))
	}
}

// TestPlanMatchesLumosd runs `lumos plan` in process and checks every
// printed frontier and dominated row against lumosd's response to the same
// request. Its degrade axis gives points whose keys differ from their
// undegraded twins' only in a suffix, so every key must print whole and
// distinct.
func TestPlanMatchesLumosd(t *testing.T) {
	s := fig7Server(t)
	var out bytes.Buffer
	args := append(append([]string{}, fig7Args...), "-top", "3",
		"-pp-range", "1,2", "-dp-range", "1,2", "-mb-range", "2,4", "-gpu-mem-gib", "192", "-zero", "1",
		"-fabric", "nvl72", "-degrade", "1,0.5")
	if err := cmdPlan(t.Context(), &out, args); err != nil {
		t.Fatal(err)
	}
	var resp server.PlanResponse
	post(t, s, "/v1/plan", server.PlanRequest{
		Profile: "fig7", PPRange: []int{1, 2}, DPRange: []int{1, 2}, MBRange: []int{2, 4},
		GPUMemGiB: 192, ZeRO: 1, Top: 3, Fabrics: []string{"nvl72"}, Degrade: []float64{1, 0.5},
	}, &resp)

	rows := tableRows(t, out.String(), "rank  point",
		regexp.MustCompile(`^ *\d+  (\S+) +\d+ +([\d.]+ms) +([\d.]+x) `))
	points := append(append([]server.PlanPoint{}, resp.Frontier...), resp.Dominated...)
	if len(rows) != len(points) || len(resp.Dominated) != 3 {
		t.Fatalf("CLI printed %d rows; lumosd returned %d frontier and %d dominated points:\n%s",
			len(rows), len(resp.Frontier), len(resp.Dominated), out.String())
	}
	printed := map[string]bool{}
	degraded := 0
	for i, p := range points {
		want := row{p.Point, fmt.Sprintf("%.1fms", p.IterationMs), fmt.Sprintf("%.2fx", p.Speedup)}
		if got := rows[i]; got != want {
			t.Errorf("row %d: CLI %+v, lumosd %+v", i+1, got, want)
		}
		if printed[rows[i].name] {
			t.Errorf("row %d: key %s printed twice", i+1, rows[i].name)
		}
		printed[rows[i].name] = true
		if strings.Contains(p.Point, "~bw*") {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("no degraded point among the printed rows:\n%s", out.String())
	}
}
