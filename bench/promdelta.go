package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"webevolve/internal/obs"
)

// The program already counts its own work in the obs.Default registry.
// The benchmark reads those counters the way an operator would — from the
// Prometheus text exposition — at the start and end of a traced run and
// reports the difference.

// promSamples maps a sample line's series ("name" or `name{label="v"}`)
// to its value.
type promSamples map[string]float64

// parseProm reads the text exposition format: comment lines are skipped,
// each sample line is `series value`.
func parseProm(text []byte) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func scrapeObs() promSamples {
	var buf bytes.Buffer
	_ = obs.Default.WritePrometheus(&buf) // bytes.Buffer writes cannot fail
	return parseProm(buf.Bytes())
}

// promDelta is end minus start for every series in end.
func promDelta(start, end promSamples) promSamples {
	out := make(promSamples, len(end))
	for k, v := range end {
		out[k] = v - start[k]
	}
	return out
}

// sum adds the deltas of every child of a family: the bare name and any
// labelled series of it. Histogram callers pass name_sum or name_count.
func (d promSamples) sum(name string) float64 {
	total := 0.0
	for k, v := range d {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// sumWhere is sum restricted to series carrying the given label pair.
func (d promSamples) sumWhere(name, label, valuePrefix string) float64 {
	total := 0.0
	want := label + `="` + valuePrefix
	for k, v := range d {
		if strings.HasPrefix(k, name+"{") && strings.Contains(k, want) {
			total += v
		}
	}
	return total
}
