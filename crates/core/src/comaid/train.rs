//! MLE training of COM-AID (§4.2, Refinement Phase).
//!
//! The objective is Eq. 10: the average negative log-likelihood of
//! generating each alias `d_j^c` from its concept's canonical description
//! `d^c`, minimised by mini-batch SGD. Back-propagation reaches every
//! parameter: "during the error back-propagation, the word embeddings and
//! the concept representations in the neural networks are also updated."

use super::model::ExampleRun;
use super::{ComAid, ComAidPlan, OntologyIndex};
use ncl_nn::optimizer::LrSchedule;
use ncl_ontology::ConceptId;
use ncl_tensor::pool::WorkerPool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Examples per gradient shard. The batch is cut into fixed-width shards
/// **as a function of batch length only** — never of `train_threads` —
/// so the shard partition, and with it every float-add order, is
/// identical at any thread count.
const SHARD_WIDTH: usize = 8;

/// Ceiling on shards per batch (bounds replica memory).
const MAX_SHARDS: usize = 8;

/// One labeled training example: decode `target` (an alias, or an expert
/// feedback snippet) from `concept`.
#[derive(Debug, Clone)]
pub struct TrainPair {
    /// The concept whose canonical description is encoded.
    pub concept: ConceptId,
    /// The word ids to decode (without BOS/EOS; the model adds both).
    pub target: Vec<u32>,
}

/// Diagnostics from a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean per-pair loss after each epoch.
    pub epoch_losses: Vec<f32>,
    /// Total number of SGD steps taken.
    pub steps: usize,
    /// Wall-clock seconds per epoch (parallel to `epoch_losses`).
    pub epoch_seconds: Vec<f64>,
    /// Training pairs processed per epoch.
    pub pairs_per_epoch: usize,
    /// Total seconds spent copying parameter values into the shard
    /// replicas before each wide batch (`sync_values_from`). This is the
    /// structural serial cost of value-synchronous sharded SGD: it is
    /// O((shards − 1) · |Θ|) per wide batch regardless of thread count
    /// (DESIGN.md §10, "the wide-batch scaling bound").
    pub sync_seconds: f64,
    /// Total seconds spent in the fixed-order left-fold gradient merge
    /// after each wide batch (`merge_grads_from`) — the other serial leg
    /// of the wide-batch path.
    pub merge_seconds: f64,
}

impl TrainReport {
    /// The final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }

    /// Total wall-clock seconds across all epochs.
    pub fn total_seconds(&self) -> f64 {
        self.epoch_seconds.iter().sum()
    }

    /// Refinement throughput: training pairs processed per second over
    /// the whole run.
    pub fn pairs_per_sec(&self) -> f64 {
        let secs = self.total_seconds();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        (self.pairs_per_epoch * self.epoch_seconds.len()) as f64 / secs
    }
}

impl ComAid {
    /// Trains on `pairs` for the configured number of epochs.
    ///
    /// # Panics
    /// Panics if `pairs` is empty.
    pub fn fit(&mut self, index: &OntologyIndex, pairs: &[TrainPair]) -> TrainReport {
        let (epochs, lr, decay) = (
            self.config().epochs,
            self.config().lr,
            self.config().lr_decay,
        );
        self.fit_epochs(
            index,
            pairs,
            epochs,
            LrSchedule {
                lr0: lr,
                decay,
                min_lr: lr * 0.05,
            },
        )
    }

    /// Trains for an explicit number of epochs with an explicit schedule
    /// (used by the feedback controller's incremental retraining,
    /// Appendix A).
    pub fn fit_epochs(
        &mut self,
        index: &OntologyIndex,
        pairs: &[TrainPair],
        epochs: usize,
        schedule: LrSchedule,
    ) -> TrainReport {
        assert!(!pairs.is_empty(), "fit: no training pairs");
        // Parameters are about to change: invalidate frozen serving caches.
        self.bump_version();
        let batch_size = self.config().batch_size.max(1);
        let clip = self.config().clip_norm;
        let mut rng = StdRng::seed_from_u64(self.config().seed ^ 0x7EA1);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut epoch_losses = Vec::with_capacity(epochs);
        let mut epoch_seconds = Vec::with_capacity(epochs);
        let mut steps = 0usize;
        let mut sync_seconds = 0.0f64;
        let mut merge_seconds = 0.0f64;

        // Data-parallel machinery. The shard partition depends only on
        // batch length; single-shard batches take the direct in-place
        // path below, so replicas and the pool only matter when a batch
        // is wide enough to split.
        let max_shards = batch_size.div_ceil(SHARD_WIDTH).min(MAX_SHARDS);
        let pool = WorkerPool::new(self.train_executors());
        let mut replicas: Vec<ComAid> = (1..max_shards)
            .map(|_| {
                let mut r = self.clone();
                // Clones inherit any transient gradient state; shards
                // must start from zero.
                r.visit_params(&mut |_, p| p.zero_grad());
                r
            })
            .collect();
        let mut shard_losses = vec![0.0f64; max_shards];
        // One tape per shard, reused by every example the shard ever runs.
        let mut runs: Vec<ExampleRun> = (0..max_shards).map(|_| ExampleRun::default()).collect();

        for epoch in 0..epochs {
            let t0 = Instant::now();
            order.shuffle(&mut rng);
            let lr = schedule.at(epoch);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(batch_size) {
                // The weights every forward pass of this batch reads,
                // transposed and gate-fused once: the parameters change
                // only at the `sgd_step` below, and the replicas are
                // value-synced copies of them, so every shard borrows
                // this one plan.
                let plan = self.plan();
                let scale = 1.0 / batch.len() as f32;
                let shard_w = batch
                    .len()
                    .div_ceil(batch.len().div_ceil(SHARD_WIDTH).min(MAX_SHARDS));
                let shards: Vec<&[usize]> = batch.chunks(shard_w).collect();
                if shards.len() == 1 {
                    // Narrow batch: accumulate straight into the live
                    // model — the exact sequential float-add order.
                    let shard = Shard {
                        pairs,
                        ids: batch,
                        scale,
                    };
                    run_shard(self, &plan, index, shard, &mut runs[0], &mut epoch_loss);
                } else {
                    let ns = shards.len();
                    let t_sync = Instant::now();
                    for r in replicas[..ns - 1].iter_mut() {
                        r.sync_values_from(self);
                    }
                    sync_seconds += t_sync.elapsed().as_secs_f64();
                    for slot in shard_losses[..ns].iter_mut() {
                        *slot = 0.0;
                    }
                    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ns);
                    {
                        // Shard 0 runs on the live model (inline on the
                        // calling thread — it is job 0 of the pool deal).
                        let main: &mut ComAid = self;
                        let models = std::iter::once(main).chain(replicas.iter_mut());
                        let state = runs.iter_mut().zip(shard_losses.iter_mut());
                        let plan = &plan;
                        for ((model, &ids), (run, out)) in models.zip(&shards).zip(state) {
                            let shard = Shard { pairs, ids, scale };
                            jobs.push(Box::new(move || {
                                run_shard(model, plan, index, shard, run, out)
                            }));
                        }
                    }
                    pool.run(jobs);
                    // Merge in fixed shard order (left fold), then fold
                    // the losses the same way: both are independent of
                    // the executor count, so `epoch_losses` are too.
                    let t_merge = Instant::now();
                    for r in replicas[..ns - 1].iter_mut() {
                        self.merge_grads_from(r);
                    }
                    merge_seconds += t_merge.elapsed().as_secs_f64();
                    for &l in &shard_losses[..ns] {
                        epoch_loss += l;
                    }
                }
                self.sgd_step(lr, clip);
                steps += 1;
            }
            epoch_losses.push((epoch_loss / pairs.len() as f64) as f32);
            epoch_seconds.push(t0.elapsed().as_secs_f64());
        }

        TrainReport {
            epoch_losses,
            steps,
            epoch_seconds,
            pairs_per_epoch: pairs.len(),
            sync_seconds,
            merge_seconds,
        }
    }

    /// Executors for data-parallel training: `train_threads`, clamped to
    /// at least 1 and at most the machine's available parallelism. Only
    /// affects wall-clock speed, never results.
    fn train_executors(&self) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.config().train_threads.max(1).min(hw)
    }
}

/// The examples of one gradient shard: `pairs[ids[k]]`, each weighted by
/// `scale`.
#[derive(Clone, Copy)]
struct Shard<'a> {
    pairs: &'a [TrainPair],
    ids: &'a [usize],
    scale: f32,
}

/// Forward + backward over one gradient shard, accumulating into
/// `model`'s gradient buffers and summing the f64 loss into `out` in
/// example order. Every forward pass reads `plan` — the batch's plan of
/// `model`'s parameters, which no example of the shard changes — and is
/// taped into `run`, so from the second example on the pass reuses the
/// first one's buffers.
fn run_shard(
    model: &mut ComAid,
    plan: &ComAidPlan,
    index: &OntologyIndex,
    shard: Shard<'_>,
    run: &mut ExampleRun,
    out: &mut f64,
) {
    for &i in shard.ids {
        let pair = &shard.pairs[i];
        model.run_example_into(plan, index, pair.concept, &pair.target, run);
        *out += run.loss as f64;
        model.backward_example(run, shard.scale);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ComAidConfig, Variant};
    use super::*;
    use ncl_ontology::{Ontology, OntologyBuilder};
    use ncl_text::{tokenize, Vocab};

    /// A micro-ontology with aliases whose words diverge from the
    /// canonical descriptions.
    fn world() -> (Ontology, Vocab, Vec<TrainPair>) {
        let mut b = OntologyBuilder::new();
        let n18 = b.add_root_concept("N18", "chronic kidney disease");
        let n185 = b.add_child(n18, "N18.5", "chronic kidney disease stage 5");
        let n189 = b.add_child(n18, "N18.9", "chronic kidney disease unspecified");
        let d50 = b.add_root_concept("D50", "iron deficiency anemia");
        let d500 = b.add_child(
            d50,
            "D50.0",
            "iron deficiency anemia secondary to blood loss",
        );
        let o = b.build().unwrap();

        let aliases: Vec<(ConceptId, &str)> = vec![
            (n185, "ckd stage 5"),
            (n185, "renal disease stage 5"),
            (n189, "ckd unspecified"),
            (n189, "renal disease nos"),
            (d500, "anemia chronic blood loss"),
            (d500, "fe def anemia"),
        ];

        let mut v = Vocab::new();
        for (_, c) in o.iter() {
            for t in tokenize(&c.canonical) {
                v.add(&t);
            }
        }
        for (_, a) in &aliases {
            for t in tokenize(a) {
                v.add(&t);
            }
        }
        let pairs = aliases
            .iter()
            .map(|(c, a)| TrainPair {
                concept: *c,
                target: tokenize(a).iter().map(|t| v.get_or_unk(t)).collect(),
            })
            .collect();
        (o, v, pairs)
    }

    fn config() -> ComAidConfig {
        ComAidConfig {
            dim: 10,
            beta: 2,
            variant: Variant::Full,
            epochs: 30,
            lr: 0.3,
            lr_decay: 0.97,
            batch_size: 3,
            clip_norm: 5.0,
            seed: 21,
            train_threads: 1,
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let (o, v, pairs) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut m = ComAid::new(v, config(), None);
        let report = m.fit(&idx, &pairs);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(
            last < first * 0.5,
            "loss should at least halve: first={first}, last={last}"
        );
        assert!(report.steps > 0);
    }

    /// After training, the model ranks the right concept above a
    /// same-parent sibling for an alias-style query — the core capability
    /// claim of the paper.
    #[test]
    fn trained_model_ranks_correct_concept_higher() {
        let (o, v, pairs) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut m = ComAid::new(v, config(), None);
        m.fit(&idx, &pairs);

        let n185 = o.by_code("N18.5").unwrap();
        let n189 = o.by_code("N18.9").unwrap();
        let q = m.encode_text("ckd stage 5");
        let right = m.log_prob_ids(&idx, n185, &q);
        let wrong = m.log_prob_ids(&idx, n189, &q);
        assert!(
            right > wrong,
            "p(q|N18.5)={right} should beat p(q|N18.9)={wrong}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (o, v, pairs) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut m1 = ComAid::new(v.clone(), config(), None);
        let mut m2 = ComAid::new(v, config(), None);
        let r1 = m1.fit(&idx, &pairs);
        let r2 = m2.fit(&idx, &pairs);
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
    }

    /// A workload wide enough that every full batch splits into three
    /// gradient shards must produce bit-identical losses AND parameters
    /// at 1, 2, and 4 training threads.
    #[test]
    fn wide_batches_are_deterministic_across_thread_counts() {
        use ncl_tensor::wire::Wire;
        let (o, v, pairs) = world();
        let mut wide: Vec<TrainPair> = Vec::new();
        for _ in 0..4 {
            wide.extend(pairs.iter().cloned());
        }
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut cfg = config();
        cfg.batch_size = 24;
        cfg.epochs = 4;
        let mut reference: Option<(Vec<f32>, Vec<u8>)> = None;
        for threads in [1usize, 2, 4] {
            cfg.train_threads = threads;
            let mut m = ComAid::new(v.clone(), cfg, None);
            let r = m.fit(&idx, &wide);
            let mut bytes = Vec::new();
            m.encode(&mut bytes);
            match &reference {
                None => reference = Some((r.epoch_losses.clone(), bytes)),
                Some((losses, model_bytes)) => {
                    assert_eq!(
                        &r.epoch_losses, losses,
                        "losses differ at {threads} threads"
                    );
                    assert_eq!(
                        &bytes, model_bytes,
                        "parameters differ at {threads} threads"
                    );
                }
            }
        }
    }

    /// One merged two-shard step equals one sequential step over the same
    /// batch, up to float reassociation in the shard sums.
    #[test]
    fn merged_shard_step_matches_sequential_step() {
        let (o, v, pairs) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut seq = ComAid::new(v, config(), None);
        let mut par = seq.clone();
        let mut replica = seq.clone();
        // 12 examples → shards [0..8) and [8..12) at width 8.
        let ids: Vec<usize> = (0..12).map(|k| k % pairs.len()).collect();
        let scale = 1.0 / ids.len() as f32;

        let shard = |ids| Shard {
            pairs: &pairs,
            ids,
            scale,
        };
        let mut run = ExampleRun::default();
        let mut loss_seq = 0.0f64;
        let plan = seq.plan();
        run_shard(&mut seq, &plan, &idx, shard(&ids), &mut run, &mut loss_seq);
        seq.sgd_step(0.1, 5.0);

        let (mut l0, mut l1) = (0.0f64, 0.0f64);
        run_shard(&mut par, &plan, &idx, shard(&ids[..8]), &mut run, &mut l0);
        run_shard(
            &mut replica,
            &plan,
            &idx,
            shard(&ids[8..]),
            &mut run,
            &mut l1,
        );
        par.merge_grads_from(&mut replica);
        par.sgd_step(0.1, 5.0);

        assert!((loss_seq - (l0 + l1)).abs() < 1e-9);
        let mut seq_vals = Vec::new();
        seq.visit_params(&mut |_, p| seq_vals.extend_from_slice(p.values_mut()));
        let mut par_vals = Vec::new();
        par.visit_params(&mut |_, p| par_vals.extend_from_slice(p.values_mut()));
        assert_eq!(seq_vals.len(), par_vals.len());
        for (a, b) in seq_vals.iter().zip(&par_vals) {
            assert!(
                (a - b).abs() <= 1e-5 * (1.0 + a.abs()),
                "param mismatch: {a} vs {b}"
            );
        }
    }

    /// The batch's plan is never stale: two batches through `fit_epochs`
    /// (one plan each, rebuilt after the first `sgd_step`) end on the
    /// same loss and parameter bytes as the same two batches run by hand
    /// with a fresh `ComAid::plan()` before every example.
    #[test]
    fn batch_plan_matches_a_fresh_plan_per_example() {
        use ncl_tensor::wire::Wire;
        let (o, v, pairs) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let cfg = config();
        assert_eq!(pairs.len(), 2 * cfg.batch_size, "two batches");
        let schedule = LrSchedule::constant(cfg.lr);
        let mut fitted = ComAid::new(v, cfg, None);
        let mut by_hand = fitted.clone();
        let report = fitted.fit_epochs(&idx, &pairs, 1, schedule);

        // `fit_epochs`'s one shuffle, then its batches.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(cfg.seed ^ 0x7EA1));
        let mut run = ExampleRun::default();
        let mut loss = 0.0f64;
        for batch in order.chunks(cfg.batch_size) {
            for &i in batch {
                let plan = by_hand.plan();
                by_hand.run_example_into(&plan, &idx, pairs[i].concept, &pairs[i].target, &mut run);
                loss += run.loss as f64;
                by_hand.backward_example(&mut run, 1.0 / batch.len() as f32);
            }
            by_hand.sgd_step(schedule.at(0), cfg.clip_norm);
        }

        let bytes = |m: &ComAid| {
            let mut out = Vec::new();
            m.encode(&mut out);
            out
        };
        assert_eq!(
            report.final_loss().to_bits(),
            ((loss / pairs.len() as f64) as f32).to_bits()
        );
        assert!(bytes(&fitted) == bytes(&by_hand), "parameters differ");
    }

    /// The allocation-free walk must visit `Θ` in exactly the
    /// `collect_params` registration order (the merge and step arithmetic
    /// depend on it).
    #[test]
    fn visit_params_matches_collect_params_order() {
        let (_, v, _) = world();
        let mut m = ComAid::new(v, config(), None);
        let mut visited = Vec::new();
        m.visit_params(&mut |name, _| visited.push(name));
        let mut set = ncl_nn::param::ParamSet::new();
        m.collect_params(&mut set);
        let collected: Vec<&'static str> = set.iter_mut().map(|(n, _)| n).collect();
        assert_eq!(visited, collected);
    }

    /// `ComAid::sgd_step` must replicate `Sgd::step` bit for bit,
    /// including the clipping branch.
    #[test]
    fn sgd_step_is_bitwise_identical_to_optimizer_step() {
        let (o, v, pairs) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut a = ComAid::new(v, config(), None);
        let mut b = a.clone();
        let ids: Vec<usize> = (0..pairs.len()).collect();
        let (mut la, mut lb) = (0.0f64, 0.0f64);
        let shard = Shard {
            pairs: &pairs,
            ids: &ids,
            scale: 0.5,
        };
        let mut run = ExampleRun::default();
        let plan = a.plan();
        run_shard(&mut a, &plan, &idx, shard, &mut run, &mut la);
        run_shard(&mut b, &plan, &idx, shard, &mut run, &mut lb);
        // A tight clip so the scaling branch is exercised.
        let norm_a = a.sgd_step(0.7, 0.5);
        let opt = ncl_nn::optimizer::Sgd::new(0.7, 0.5);
        let mut set = ncl_nn::param::ParamSet::new();
        b.collect_params(&mut set);
        let norm_b = opt.step(&mut set);
        drop(set);
        assert_eq!(norm_a.to_bits(), norm_b.to_bits());
        let mut va = Vec::new();
        a.visit_params(&mut |_, p| va.extend_from_slice(p.values_mut()));
        let mut vb = Vec::new();
        b.visit_params(&mut |_, p| vb.extend_from_slice(p.values_mut()));
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `Θ`'s walk is the per-gate one: an LSTM yields its twelve gate
    /// blocks `wi … bg` in that order, each squared norm a serial sum of
    /// that block alone, and with clipping on `sgd_step`'s norm is the
    /// fold of those sums in walk order — the clip bits of the per-gate
    /// layout.
    #[test]
    fn clip_norm_folds_the_twelve_gate_blocks_in_order() {
        let (o, v, pairs) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut m = ComAid::new(v, config(), None);
        let ids: Vec<usize> = (0..pairs.len()).collect();
        let shard = Shard {
            pairs: &pairs,
            ids: &ids,
            scale: 0.5,
        };
        let plan = m.plan();
        run_shard(
            &mut m,
            &plan,
            &idx,
            shard,
            &mut ExampleRun::default(),
            &mut 0.0,
        );

        let sq = |g: &[f32]| -> u32 { g.iter().map(|x| x * x).sum::<f32>().to_bits() };
        let mut want = vec![(
            "embedding",
            ncl_nn::Parameter::sq_grad_norm(&m.embedding).to_bits(),
        )];
        let names = [
            ["lstm.wi", "lstm.wf", "lstm.wo", "lstm.wg"],
            ["lstm.ui", "lstm.uf", "lstm.uo", "lstm.ug"],
            ["lstm.bi", "lstm.bf", "lstm.bo", "lstm.bg"],
        ];
        for l in [&m.encoder, &m.decoder] {
            for (t, names) in [l.w.g.as_slice(), l.u.g.as_slice(), l.b.g.as_slice()]
                .into_iter()
                .zip(names)
            {
                let blocks = t.chunks_exact(t.len() / 4);
                want.extend(names.into_iter().zip(blocks.map(sq)));
            }
        }
        for l in [&m.composite, &m.output] {
            want.push(("dense.w", sq(l.w.g.as_slice())));
            want.push(("dense.b", sq(l.b.g.as_slice())));
        }
        let mut walked = Vec::new();
        m.visit_params(&mut |name, p| walked.push((name, p.sq_grad_norm().to_bits())));
        assert_eq!(walked, want);

        let fold = walked
            .iter()
            .fold(0.0f32, |a, &(_, s)| a + f32::from_bits(s));
        assert!(fold.sqrt() > 1e-3, "the clip branch must run");
        assert_eq!(m.sgd_step(0.7, 1e-3).to_bits(), fold.sqrt().to_bits());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            /// Property: for random seeds, batch sizes, and learning
            /// rates, `fit` reports identical epoch losses at 1, 2, and
            /// 4 training threads.
            #[test]
            fn epoch_losses_are_thread_invariant(
                seed in 0u64..500,
                batch_size in 1usize..32,
                lr in 0.05f32..0.4,
            ) {
                let (o, v, pairs) = world();
                let mut wide: Vec<TrainPair> = Vec::new();
                for _ in 0..3 {
                    wide.extend(pairs.iter().cloned());
                }
                let idx = OntologyIndex::build(&o, &v, 2);
                let mut cfg = config();
                cfg.seed = seed;
                cfg.batch_size = batch_size;
                cfg.lr = lr;
                cfg.epochs = 2;
                let mut reference: Option<Vec<f32>> = None;
                for threads in [1usize, 2, 4] {
                    cfg.train_threads = threads;
                    let mut m = ComAid::new(v.clone(), cfg, None);
                    let r = m.fit(&idx, &wide);
                    match &reference {
                        None => reference = Some(r.epoch_losses.clone()),
                        Some(l) => prop_assert_eq!(&r.epoch_losses, l),
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no training pairs")]
    fn empty_pairs_panics() {
        let (o, v, _) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut m = ComAid::new(v, config(), None);
        let _ = m.fit(&idx, &[]);
    }

    #[test]
    fn incremental_fit_continues_learning() {
        let (o, v, pairs) = world();
        let idx = OntologyIndex::build(&o, &v, 2);
        let mut m = ComAid::new(v, config(), None);
        m.fit(&idx, &pairs);
        // Feed one extra feedback pair and retrain briefly (Appendix A).
        let extra = TrainPair {
            concept: o.by_code("D50.0").unwrap(),
            target: m.encode_text("hemorrhagic anemia"),
        };
        let before = m.log_prob_ids(&idx, extra.concept, &extra.target);
        let mut all = pairs.clone();
        all.push(extra.clone());
        m.fit_epochs(&idx, &all, 5, ncl_nn::optimizer::LrSchedule::constant(0.1));
        let after = m.log_prob_ids(&idx, extra.concept, &extra.target);
        assert!(
            after > before,
            "feedback should raise p: {before} -> {after}"
        );
    }
}
