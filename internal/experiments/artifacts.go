package experiments

import (
	"fmt"
	"slices"

	"fidr/internal/metrics"
)

// artifact is one table or figure and how it renders from a run matrix.
type artifact struct {
	name   string
	render func(*matrix) (*metrics.Table, error)
}

// artifacts is every artifact Render accepts: the paper's tables and
// figures in paper order, then the extension studies.
var artifacts = []artifact{
	{"fig3", func(m *matrix) (*metrics.Table, error) { return tableOf(Fig3(m.sc)) }},
	{"fig4", func(m *matrix) (*metrics.Table, error) { return tableOf(m.fig4()) }},
	{"fig5", func(m *matrix) (*metrics.Table, error) { return tableOf(m.fig5()) }},
	{"table1", func(m *matrix) (*metrics.Table, error) { return tableOf(m.table1()) }},
	{"table2", (*matrix).table2},
	{"table3", func(m *matrix) (*metrics.Table, error) { return tableOf(m.table3()) }},
	{"fig11", func(m *matrix) (*metrics.Table, error) { return tableOf(m.fig11()) }},
	{"fig12", func(m *matrix) (*metrics.Table, error) { return tableOf(m.fig12()) }},
	{"fig13", func(m *matrix) (*metrics.Table, error) { return tableOf(m.fig13()) }},
	{"fig14", func(m *matrix) (*metrics.Table, error) { return tableOf(m.fig14()) }},
	{"latency", func(*matrix) (*metrics.Table, error) { _, tab := Latency(); return tab, nil }},
	{"table4", func(*matrix) (*metrics.Table, error) { return Table4(), nil }},
	{"table5", func(m *matrix) (*metrics.Table, error) { return tableOf(m.table5()) }},
	{"fig15", func(m *matrix) (*metrics.Table, error) { return tableOf(m.fig15()) }},
	{"fig16", func(m *matrix) (*metrics.Table, error) { return tableOf(m.fig16()) }},
	{"ablation-chunk", func(m *matrix) (*metrics.Table, error) { return tableOf(AblationChunkSize(m.sc)) }},
	{"ablation-batch", func(m *matrix) (*metrics.Table, error) { return tableOf(m.ablationBatch()) }},
	{"ablation-cache", func(m *matrix) (*metrics.Table, error) { return tableOf(m.ablationCache()) }},
	{"ablation-width", func(m *matrix) (*metrics.Table, error) { return tableOf(m.ablationWidth()) }},
	{"ablation-readoffload", func(m *matrix) (*metrics.Table, error) { return tableOf(m.ablationReadOffload()) }},
	{"ablation-readcache", func(m *matrix) (*metrics.Table, error) { return tableOf(m.ablationReadCache()) }},
	{"ablation-scaleout", func(m *matrix) (*metrics.Table, error) { return tableOf(AblationScaleout(m.sc)) }},
	{"cdc", func(m *matrix) (*metrics.Table, error) { return tableOf(CDC(m.sc)) }},
	{"capacity", func(m *matrix) (*metrics.Table, error) { return tableOf(Capacity(m.sc)) }},
	{"archival", func(m *matrix) (*metrics.Table, error) { return tableOf(Archival(m.sc)) }},
	{"lifetime", func(m *matrix) (*metrics.Table, error) { return tableOf(m.lifetime()) }},
	{"selfperf", func(*matrix) (*metrics.Table, error) { return tableOf(SelfPerf()) }},
	{"scorecard", (*matrix).scorecard},
}

// tableOf drops an artifact's typed rows.
func tableOf[R any](_ R, tab *metrics.Table, err error) (*metrics.Table, error) { return tab, err }

// Names returns the artifact names Render accepts, in its list's order.
func Names() []string {
	out := make([]string, len(artifacts))
	for i, a := range artifacts {
		out[i] = a.name
	}
	return out
}

// Render renders the named artifacts in the order given from one run
// matrix, so a run several of them read plays once, and hands emit each
// table, or the error that stopped that artifact, as soon as it is done.
// An unknown name is refused before anything plays.
func Render(names []string, sc Scale, emit func(name, table string, err error)) error {
	return newMatrix(sc).render(names, emit)
}

func (m *matrix) render(names []string, emit func(name, table string, err error)) error {
	renders := make([]func(*matrix) (*metrics.Table, error), len(names))
	for i, name := range names {
		j := slices.IndexFunc(artifacts, func(a artifact) bool { return a.name == name })
		if j < 0 {
			return fmt.Errorf("experiments: unknown artifact %q", name)
		}
		renders[i] = artifacts[j].render
	}
	for i, render := range renders {
		tab, err := render(m)
		out := ""
		if err == nil {
			out = tab.String()
		}
		emit(names[i], out, err)
	}
	return nil
}
