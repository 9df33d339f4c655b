//! What the benchmark declares: workloads and metric names, units and
//! directions. `../BENCHMARK.json` carries the same lists (plus bounds)
//! for the driver; the self-test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Link,
    Notes,
    Frontend,
    Train,
}

impl Workload {
    pub const ALL: [Workload; 4] = [Self::Link, Self::Notes, Self::Frontend, Self::Train];

    pub fn name(self) -> &'static str {
        match self {
            Self::Link => "icd30k-link",
            Self::Notes => "icd30k-notes",
            Self::Frontend => "icd30k-fe",
            Self::Train => "hx-train",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees; every workload reports every one
/// (the unit of work behind `throughput` / `p50_ms` / `quality` is the
/// workload's own — README, "End-to-end metrics").
pub const END_TO_END: &[Metric] = &[
    m("throughput", "1/s", "higher"),
    m("p50_ms", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("rss_mb", "MB", "lower"),
    m("quality", "fraction", "higher"),
];

/// Single layers, from the traced run. 0 = the workload does not
/// exercise that layer.
pub const PER_LAYER: &[Metric] = &[
    m("serving.rewrite_us", "us", "lower"),
    m("serving.retrieve_us", "us", "lower"),
    m("serving.score_us", "us", "lower"),
    m("serving.rank_us", "us", "lower"),
    m("serving.propose_us", "us", "lower"),
    m("serving.unattributed_frac", "fraction", "lower"),
    m("serving.batch_speedup", "ratio", "higher"),
    m("serving.rewrite_call_us", "us", "lower"),
    m("serving.retrieve_call_us", "us", "lower"),
    m("serving.score_call_us", "us", "lower"),
    m("serving.propose_call_us", "us", "lower"),
    m("serving.postings_scored_per_query", "count", "lower"),
    m("serving.postings_pruned_frac", "fraction", "higher"),
    m("serving.rewrite_memo_hit_frac", "fraction", "higher"),
    m("serving.spans_per_note", "count", "lower"),
    m("serving.span_recall", "fraction", "higher"),
    m("serving.allocs_per_link", "count", "lower"),
    m("serving.alloc_kb_per_link", "kB", "lower"),
    m("serving.allocs_per_note", "count", "lower"),
    m("serving.link_p99_ms", "ms", "lower"),
    m("serving.doc_p99_ms", "ms", "lower"),
    m("frontend.overhead_frac", "fraction", "lower"),
    m("frontend.doc_p50_ms", "ms", "lower"),
    m("frontend.full_rung_frac", "fraction", "higher"),
    m("frontend.degraded_frac", "fraction", "lower"),
    m("frontend.accounted", "count", "higher"),
    m("frontend.hist_p50_err_frac", "fraction", "lower"),
    m("comaid.save_s", "s", "lower"),
    m("comaid.load_s", "s", "lower"),
    m("comaid.checkpoint_mb", "MB", "lower"),
    m("comaid.cache_mb", "MB", "lower"),
    m("comaid.cache_bytes_per_concept", "B", "lower"),
    m("comaid.final_loss", "nats", "lower"),
    m("linker.new_s", "s", "lower"),
    m("linker.first_200_s", "s", "lower"),
    m("pipeline.fit_s", "s", "lower"),
    m("pipeline.pretrain_s", "s", "lower"),
    m("pipeline.refine_s", "s", "lower"),
    m("pipeline.other_s", "s", "lower"),
    m("pipeline.refine_pairs_per_s", "1/s", "higher"),
    m("feedback.publish_s", "s", "lower"),
    m("feedback.publish_freeze_s", "s", "lower"),
    m("feedback.retrain_s", "s", "lower"),
    m("feedback.acc_delta_fed", "fraction", "higher"),
    m("quality.acc_top1", "fraction", "higher"),
    m("quality.mrr", "fraction", "higher"),
    m("quality.acc_top1_oov", "fraction", "higher"),
    m("quality.cov_at_k", "fraction", "higher"),
    m("tensor.gemm_nt_us", "us", "lower"),
    m("tensor.lse_ns", "ns", "lower"),
    m("nn.lstm_step_ns", "ns", "lower"),
    m("nn.attention_ns", "ns", "lower"),
    m("text.tfidf_topk_us", "us", "lower"),
    m("text.edit_nearest_us", "us", "lower"),
    m("embedding.nearest_us", "us", "lower"),
    m("trace.overhead_frac", "fraction", "lower"),
];

/// Default seed, and the digests recorded for it. A drifted
/// `inputs_digest` aborts the run; a drifted `ranked_digest` fails every
/// answer of the workload — but only under the libm the digests were
/// recorded with, because score bits go through the platform's `exp`.
pub const DEFAULT_SEED: u64 = 17;

#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    pub workload: Workload,
    pub inputs_digest: u64,
    pub ranked_digest: u64,
}

/// `sandbox::libm_fingerprint()` of the image the digests were recorded on.
pub const PINNED_LIBM: u64 = 0xe95d_ab8b_cbf3_5a98;

const ICD30K_INPUTS: u64 = 0x88cf_0c24_784d_43de;

pub const PINNED: &[Pinned] = &[
    Pinned {
        workload: Workload::Link,
        inputs_digest: ICD30K_INPUTS,
        ranked_digest: 0x8e7b_9cbe_17cb_779d,
    },
    Pinned {
        workload: Workload::Notes,
        inputs_digest: ICD30K_INPUTS,
        ranked_digest: 0xce2a_5958_a467_8439,
    },
    Pinned {
        workload: Workload::Frontend,
        inputs_digest: ICD30K_INPUTS,
        ranked_digest: 0xee33_3edd_1ca6_6bee,
    },
    Pinned {
        workload: Workload::Train,
        inputs_digest: 0x2a29_b10a_2803_eb05,
        ranked_digest: 0x17a2_14db_1ec2_8cb6,
    },
];

pub fn pinned(workload: Workload) -> Option<&'static Pinned> {
    PINNED.iter().find(|p| p.workload == workload)
}
