package main

// Workload and metric names. BENCHMARK.json at the repository root lists
// the same names (TestBenchmarkJSONMatches keeps the two in step); later
// issues state their claims in these names, so they do not change.

// Workload names.
const (
	wlPipeline     = "pipeline"
	wlServeUniform = "serve-uniform"
	wlServeSkew    = "serve-skew"
	wlServePaced   = "serve-paced"
	wlFedTree      = "fed-tree"
)

var workloadNames = []string{wlPipeline, wlServeUniform, wlServeSkew, wlServePaced, wlFedTree}

// metricDef is one emitted metric: its name and unit, and for end-to-end
// metrics the direction in which it improves.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd lists the nine end-to-end metrics, reported from the untraced
// run of every workload. ok_share is 1 − failed_share: the driver divides
// by a metric's median, so the share that is normally zero is reported as
// its complement (failed and attempted ride on the result line itself).
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"pipeline_wall_s", "s", false},
	{"points_per_s", "1/s", true},
	{"verdict_p50_us", "us", false},
	{"verdict_p99_us", "us", false},
	{"round_wall_ms", "ms", false},
	{"root_bytes_per_round", "bytes", false},
	{"peak_rss_mb", "MB", false},
	{"ok_share", "share", true},
}

// perLayer lists the per-layer metrics of the traced run; the part before
// the first dot is the module the figure belongs to. A metric the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"eval.prepare_s", "s", false},
	{"eval.fed_clean_s", "s", false},
	{"eval.fed_attacked_s", "s", false},
	{"eval.fed_filtered_s", "s", false},
	{"eval.central_filtered_s", "s", false},

	{"mat.gemm_train_gflops", "GFLOP/s", true},
	{"mat.gemm_score_gflops", "GFLOP/s", true},
	{"mat.gate_act_ns_per_elem", "ns", false},

	{"nn.lstm_fwd_us", "us", false},
	{"nn.lstm_bwd_us", "us", false},
	{"nn.fit_epoch_ms", "ms", false},
	{"nn.fit_allocs_per_epoch", "count", false},
	{"nn.predict_batch_us", "us", false},

	{"autoencoder.train_s", "s", false},
	{"autoencoder.score_windows_per_s", "1/s", true},
	{"autoencoder.stream_score_ns", "ns", false},

	{"anomaly.filter_points_per_s", "1/s", true},
	{"anomaly.flag_rate", "share", false},

	{"serve.submit_ns", "ns", false},
	{"serve.batch_fill", "count", true},
	{"serve.batched_share", "share", true},
	{"serve.rejected_share", "share", false},
	{"serve.steal_offered", "count", false},
	{"serve.steal_taken_share", "share", true},
	{"serve.internal_p50_us", "us", false},
	{"serve.internal_p99_us", "us", false},
	{"serve.lost_verdicts", "count", false},
	{"serve.allocs_per_point", "count", false},
	{"serve.reload_ms", "ms", false},
	{"serve.stage_promote_ms", "ms", false},
	{"serve.peak_rss_mb", "MB", false},

	{"fed.local_train_ms", "ms", false},
	{"fed.aggregate_tail_ms", "ms", false},
	{"fed.checkpoint_ms", "ms", false},
	{"fed.aggregate_mb_per_s", "MB/s", true},
	{"fed.checkpoint_encode_mb_per_s", "MB/s", true},
	{"fed.dropped_clients", "count", false},
	{"fed.subtree_bytes_per_round", "bytes", false},

	{"wire.encode_mb_per_s.none", "MB/s", true},
	{"wire.encode_mb_per_s.f32", "MB/s", true},
	{"wire.encode_mb_per_s.q8", "MB/s", true},
	{"wire.decode_mb_per_s.none", "MB/s", true},
	{"wire.decode_mb_per_s.f32", "MB/s", true},
	{"wire.decode_mb_per_s.q8", "MB/s", true},
	{"wire.partial_roundtrip_us", "us", false},
	{"wire.conn_io_ms_per_round", "ms", false},
	{"wire.bytes_up_per_round", "bytes", false},
	{"wire.bytes_down_per_round", "bytes", false},

	{"loadgen.offered_pts_s", "1/s", true},
	{"loadgen.lag_p99_us", "us", false},
	{"loadgen.trace_overhead_pct", "%", false},
}
