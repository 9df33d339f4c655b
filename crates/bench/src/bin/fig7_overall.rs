//! Figure 7: overall linking quality (§6.4).
//!
//! NCL against pkduck (θ ∈ {0.1 … 0.5}), NOBLECoder (NC), LR⁺ (restricted
//! to NCL's Phase-I candidates, per §6.4), WMD (embedding dimension
//! sweep, best reported) and Doc2Vec (dimension sweep, best reported).
//! Both accuracy (Figure 7(a)) and MRR (Figure 7(b)).
//!
//! Expected shape: NCL ≫ pkduck(θ=0.1) > {NC, LR⁺, WMD, Doc2Vec}; for
//! pkduck, accuracy rises as θ falls while MRR converges towards
//! accuracy as θ grows.

use ncl_baselines::doc2vec::Doc2VecConfig;
use ncl_baselines::{Doc2Vec, LrPlus, NobleCoder, Pkduck, Wmd};
use ncl_bench::{eval, table, workload, Scale};
use ncl_datagen::lexicon::PHRASE_ABBREVS;
use ncl_embedding::corpus::CorpusBuilder;
use ncl_embedding::{CbowConfig, CbowModel};
use ncl_text::tokenize;

struct MethodResult {
    dataset: String,
    method: String,
    accuracy: f32,
    mrr: f32,
}
ncl_bench::impl_to_json!(MethodResult {
    dataset,
    method,
    accuracy,
    mrr
});

fn main() {
    let scale = Scale::from_args();
    println!("Figure 7 reproduction — overall linking quality");
    let k = ncl_bench::config::table1::K_DEFAULT;
    let mut records: Vec<MethodResult> = Vec::new();

    for &profile in workload::PROFILES {
        let ds = workload::dataset(profile, &scale);
        let groups = workload::query_groups(&ds, &scale);
        let mut rows = Vec::new();
        let push = |records: &mut Vec<MethodResult>,
                    rows: &mut Vec<Vec<String>>,
                    name: String,
                    m: eval::Metrics| {
            rows.push(vec![name.clone(), table::f(m.accuracy), table::f(m.mrr)]);
            records.push(MethodResult {
                dataset: ds.profile.name().to_string(),
                method: name,
                accuracy: m.accuracy,
                mrr: m.mrr,
            });
        };

        // NCL.
        let pipeline = workload::fit_default(&ds, &scale);
        let linker = pipeline.linker(&ds.ontology);
        let ncl_m = eval::evaluate_linker(&linker, &groups);
        push(&mut records, &mut rows, "NCL".into(), ncl_m);

        // pkduck θ sweep.
        for theta in [0.1f32, 0.2, 0.3, 0.4, 0.5] {
            let pk = Pkduck::build(&ds.ontology, theta, PHRASE_ABBREVS);
            let m = eval::evaluate_annotator(&pk, &groups, k);
            push(&mut records, &mut rows, format!("pkduck t={theta:.1}"), m);
        }

        // NC.
        let nc = NobleCoder::build(&ds.ontology);
        let m = eval::evaluate_annotator(&nc, &groups, k);
        push(&mut records, &mut rows, "NC".into(), m);

        // LR+ on NCL's candidates (the §6.4 protocol).
        let lr = LrPlus::train(&ds.ontology, 40, 0.5, scale.seed);
        let m = eval::evaluate_annotator_on_candidates(&lr, &linker, &groups);
        push(&mut records, &mut rows, "LR+".into(), m);

        // WMD over CBOW embeddings, dimension sweep (plain corpus: WMD
        // has no concept-id trick).
        let mut best_wmd: Option<(usize, eval::Metrics)> = None;
        for &dim in &scale.dims {
            let mut cb = CorpusBuilder::new();
            for (_, c) in ds.ontology.iter() {
                cb.add_unlabeled(&tokenize(&c.canonical));
                for a in &c.aliases {
                    cb.add_unlabeled(&tokenize(a));
                }
            }
            for s in &ds.unlabeled {
                cb.add_unlabeled(s);
            }
            let corpus = cb.build();
            let cbow = CbowModel::train(
                &corpus,
                CbowConfig {
                    dim,
                    window: 5,
                    negative: 8,
                    epochs: scale.cbow_epochs,
                    lr: 0.05,
                    seed: scale.seed,
                },
            );
            let wmd = Wmd::build(&ds.ontology, corpus.vocab.clone(), cbow.into_embeddings());
            let m = eval::evaluate_annotator(&wmd, &groups, k);
            if best_wmd.is_none_or(|(_, b)| m.accuracy > b.accuracy) {
                best_wmd = Some((dim, m));
            }
        }
        let (wd, wm) = best_wmd.unwrap();
        push(&mut records, &mut rows, format!("WMD d={wd}"), wm);

        // Doc2Vec dimension sweep.
        let mut best_d2v: Option<(usize, eval::Metrics)> = None;
        for &dim in &scale.dims {
            let d2v = Doc2Vec::train(
                &ds.ontology,
                Doc2VecConfig {
                    dim,
                    epochs: scale.cbow_epochs * 2,
                    infer_epochs: 20,
                    seed: scale.seed,
                    ..Doc2VecConfig::default()
                },
            );
            let m = eval::evaluate_annotator(&d2v, &groups, k);
            if best_d2v.is_none_or(|(_, b)| m.accuracy > b.accuracy) {
                best_d2v = Some((dim, m));
            }
        }
        let (dd, dm) = best_d2v.unwrap();
        push(&mut records, &mut rows, format!("Doc2Vec d={dd}"), dm);

        table::banner(&format!(
            "Figure 7(a)(b): accuracy / MRR, {}",
            ds.profile.name()
        ));
        println!("{}", table::render(&["method", "Acc", "MRR"], &rows));
    }

    // Shape check: NCL should lead everywhere.
    let ncl_min = records
        .iter()
        .filter(|r| r.method == "NCL")
        .map(|r| r.accuracy)
        .fold(f32::INFINITY, f32::min);
    let best_other = records
        .iter()
        .filter(|r| r.method != "NCL")
        .map(|r| r.accuracy)
        .fold(0.0f32, f32::max);
    table::banner("Shape check");
    println!(
        "NCL min accuracy {:.3} vs best competitor {:.3} -> NCL wins: {}",
        ncl_min,
        best_other,
        ncl_min > best_other
    );

    ncl_bench::results::write_json("fig7_overall", &records);
}
