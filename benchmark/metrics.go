package main

// The metric ledger: every name the benchmark prints, with its unit and
// its role. BENCHMARK.json declares the same end-to-end and per-layer
// names (bench_test.go keeps the two in step); the glossary and the
// layer -> end-to-end map live in README.md.

// kind says where a metric is reported.
type kind int

const (
	// endToEnd metrics are measured with tracing off, carry a regression
	// bound in BENCHMARK.json, and are reported by every workload.
	endToEnd kind = iota
	// phase metrics are the untraced times of the issue's table that are
	// printed and written to the result file but not declared in
	// BENCHMARK.json, where their traced twins (rhea.solve_s, ckpt.read_ms,
	// scenario.resume_s, ...) stand in. The phase sums only exist on some
	// workloads (a workload that never adapts has no adapt_s) while the
	// driver's contract wants every workload to report every bounded
	// metric and none to be zero; resume_s is 20 to 150 ms on the
	// simulation workloads and does not repeat within any bound the
	// contract allows (interquartile spread 12% to 25% over ten runs).
	phase
	// perLayer metrics come from the traced run. The ones that cost nothing
	// to collect (the whole-schedule exact counters, Nu and Vrms) are
	// recorded by the untraced run too, and the determinism self-check
	// demands that the exact ones among them equal the traced run's.
	perLayer
)

type metricDef struct {
	name  string
	unit  string
	kind  kind
	exact bool // a count that must repeat bit-for-bit at fixed ranks, seed and schedule
}

var ledger = []metricDef{
	{"wall_s", "s", endToEnd, false},
	{"setup_s", "s", endToEnd, false},
	{"first_diag_s", "s", endToEnd, false},
	{"job_s", "s", endToEnd, false},
	{"live_heap_mb", "MB", endToEnd, false},

	{"solve_s", "s", phase, false},
	{"advect_s", "s", phase, false},
	{"adapt_s", "s", phase, false},
	{"resume_s", "s", phase, false},

	{"sim.user_msgs", "count", perLayer, true},
	{"sim.user_mb", "MB", perLayer, true},
	{"sim.coll_calls", "count", perLayer, true},
	{"sim.coll_rounds", "count", perLayer, true},
	{"sim.colls_per_iter", "ratio", perLayer, true},
	{"sim.msgs_per_iter", "ratio", perLayer, true},
	{"sim.allreduce_us", "us", perLayer, false},
	{"sim.spawn_ms", "ms", perLayer, false},

	{"la.ghost_roundtrip_us", "us", perLayer, false},
	{"la.dot_us", "us", perLayer, false},

	{"krylov.iters", "count", perLayer, true},
	{"krylov.iters_max", "count", perLayer, true},
	{"krylov.nonconverged", "count", perLayer, true},
	{"krylov.wall_ms_per_iter", "ms", perLayer, false},
	{"krylov.self_us_per_iter", "us", perLayer, false},
	{"krylov.replay_cover", "ratio", perLayer, false},

	{"matfree.apply_ms", "ms", perLayer, false},
	{"matfree.mdof_per_s", "Mdof/s", perLayer, false},
	{"matfree.msgs_per_apply", "count", perLayer, true},
	{"matfree.kb_per_apply", "KB", perLayer, true},
	{"matfree.allocs_per_apply", "count", perLayer, false},
	{"matfree.flop_per_byte", "flop/B", perLayer, true},
	{"matfree.gbs_computed", "GB/s", perLayer, false},
	{"host.triad_gbs", "GB/s", perLayer, false},
	{"host.triad_array_mb", "MB", perLayer, false},
	{"host.llc_mb", "MB", perLayer, false},

	{"fem.kernel_ns", "ns", perLayer, false},

	{"gmg.vcycle_ms", "ms", perLayer, false},
	{"gmg.levels", "count", perLayer, true},
	{"gmg.coarse_ranks", "count", perLayer, true},
	{"gmg.coarse_elems", "count", perLayer, true},
	{"gmg.msgs_per_vcycle", "count", perLayer, true},
	{"gmg.colls_per_vcycle", "count", perLayer, true},
	{"gmg.allocs_per_vcycle", "count", perLayer, false},
	{"gmg.build_ms", "ms", perLayer, false},
	{"gmg.rebuild_ms", "ms", perLayer, false},

	{"stokes.setup_s", "s", perLayer, false},
	{"stokes.update_s", "s", perLayer, false},
	{"stokes.minres_s", "s", perLayer, false},
	{"stokes.setups", "count", perLayer, true},
	{"stokes.precond_apply_ms", "ms", perLayer, false},
	{"stokes.relres_final", "ratio", perLayer, false},

	{"advect.total_s", "s", perLayer, false},
	{"advect.step_us_per_elem", "us", perLayer, false},
	{"advect.new_ms", "ms", perLayer, false},
	{"advect.step_ms", "ms", perLayer, false},

	{"errind.mark_s", "s", perLayer, false},
	{"amr.coarsen_refine_s", "s", perLayer, false},
	{"amr.balance_s", "s", perLayer, false},
	{"amr.partition_s", "s", perLayer, false},
	{"mesh.extract_s", "s", perLayer, false},
	{"mesh.extract_us_per_elem", "us", perLayer, false},
	{"field.project_s", "s", perLayer, false},
	{"field.transfer_s", "s", perLayer, false},
	{"amr.adapts", "count", perLayer, true},
	{"amr.refined", "count", perLayer, true},
	{"amr.coarsened", "count", perLayer, true},
	{"amr.balance_added", "count", perLayer, true},
	{"amr.elems_final", "count", perLayer, true},
	{"amr.elem_imbalance", "ratio", perLayer, true},

	{"rhea.solve_s", "s", perLayer, false},
	{"rhea.advect_s", "s", perLayer, false},
	{"rhea.adapt_s", "s", perLayer, false},
	{"rhea.ckpt_s", "s", perLayer, false},
	{"rhea.diag_s", "s", perLayer, false},
	{"rhea.other_s", "s", perLayer, false},
	{"rhea.breakdown_cover", "ratio", perLayer, false},
	{"rhea.alloc_mb", "MB", perLayer, false},
	{"rhea.mallocs", "count", perLayer, false},
	{"rhea.gc_count", "count", perLayer, false},
	{"rhea.gc_pause_ms", "ms", perLayer, false},
	{"rhea.nu", "ratio", perLayer, false},
	{"rhea.vrms", "ratio", perLayer, false},
	{"rhea.nu_relerr", "ratio", perLayer, false},
	{"rhea.speedup_2r", "ratio", perLayer, false},
	{"rhea.trace_overhead_frac", "ratio", perLayer, false},

	{"ckpt.write_ms", "ms", perLayer, false},
	{"ckpt.read_ms", "ms", perLayer, false},
	{"ckpt.kb", "KB", perLayer, false},
	{"ckpt.restore_bitexact", "count", perLayer, true},

	{"scenario.submit_ms", "ms", perLayer, false},
	{"scenario.queue_wait_s", "s", perLayer, false},
	{"scenario.resume_s", "s", perLayer, false},
	{"scenario.overhead_frac", "ratio", perLayer, false},
	{"scenario.direct_ratio", "ratio", perLayer, false},
	{"scenario.jobs", "count", perLayer, true},
	{"scenario.failed_jobs", "count", perLayer, true},
	{"scenario.retries", "count", perLayer, true},
	{"scenario.journal_kb", "KB", perLayer, false},
	{"scenario.snap_kb", "KB", perLayer, false},
}

func defOf(name string) (metricDef, bool) {
	for _, d := range ledger {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
