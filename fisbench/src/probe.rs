//! Layer probes of the traced run. Each probe times public calls of one
//! layer, made from this file on the workload's own inputs, so the
//! per-layer numbers need no instrumentation inside the crates.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, SystemTime};

use fis_core::{FisOne, FittedModel, VpTree};
use fis_gnn::RfGnn;
use fis_graph::{cooccurrence_pairs, random_walks, BipartiteGraph, WalkStrategy};
use fis_serve::protocol::parse_frame;
use fis_serve::registry::Fetch;
use fis_serve::{Daemon, DaemonConfig, RegistryConfig, Router, SharedRegistry};
use fis_types::json::Json;
use fis_types::{Building, FloorId, LabeledAnchor, MacAddr};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::corpus::{median, quantile};
use crate::report::{check_config, Outcome};
use crate::tenant::Tenant;
use crate::trace::Recorder;

/// The fit pipeline stage by stage, through each layer's public call,
/// and how much of `fit_s` the stages account for.
pub fn fit_stages(
    rec: &Recorder,
    fis: &FisOne,
    train: &Building,
    anchor: LabeledAnchor,
    fit_s: f64,
    fit_labels: &[FloorId],
    out: &mut Outcome,
) -> Result<(), String> {
    let samples = train.samples();
    let floors = train.floors();
    let config = &fis.config().gnn;
    let root = rec.span("fit.staged", None);
    let parent = root.id();
    let (graph, build_s) = rec.time("graph.build", parent, || {
        BipartiteGraph::from_samples(samples)
    });
    let graph = graph.map_err(|e| e.to_string())?;
    // The walks and pairs training draws first: same seed, strategy and
    // lengths as `RfGnn::train_with_report`.
    let (pairs, walks_s) = rec.time("graph.walks", parent, || {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let strategy = if config.attention {
            WalkStrategy::Weighted
        } else {
            WalkStrategy::Uniform
        };
        let walks = random_walks(
            &graph,
            &mut rng,
            config.walks_per_node,
            config.walk_length,
            strategy,
        );
        cooccurrence_pairs(&walks, config.walk_length).len()
    });
    let (trained, train_s) = rec.time("gnn.train", parent, || {
        RfGnn::train_with_report(&graph, config)
    });
    let (gnn, report) = trained?;
    if report.pairs != pairs {
        out.note(format!(
            "WARN: replayed walks gave {pairs} pairs, training used {}",
            report.pairs
        ));
    }
    let (embeddings, embed_s) = rec.time("gnn.embed", parent, || gnn.embed_samples(&graph));
    let (assignment, linkage_s) = rec.time("cluster.linkage", parent, || {
        fis.cluster_embeddings(&embeddings, floors)
    });
    let assignment = assignment.map_err(|e| e.to_string())?;
    let (prediction, order_s) = rec.time("core.floor_order", parent, || {
        fis.index_assignment(samples, &assignment, floors, anchor)
    });
    let prediction = prediction.map_err(|e| e.to_string())?;
    root.finish();
    if prediction.labels() != fit_labels {
        out.note("WARN: the staged pipeline's labels differ from FisOne::fit".to_owned());
    }

    let batches = config.epochs * pairs.div_ceil(config.batch_pairs);
    out.set("graph.build_ms", build_s * 1e3);
    out.set("graph.walks_ms", walks_s * 1e3);
    out.set("graph.pairs", pairs as f64);
    out.set("gnn.train_s", train_s);
    out.set("gnn.train_self_s", train_s - walks_s);
    out.set("gnn.batches", batches as f64);
    out.set(
        "gnn.batch_ms",
        (train_s - walks_s) * 1e3 / batches.max(1) as f64,
    );
    out.set("gnn.embed_ms", embed_s * 1e3);
    out.set("cluster.linkage_ms", linkage_s * 1e3);
    out.set("core.floor_order_ms", order_s * 1e3);
    let stage_sum = build_s + train_s + embed_s + linkage_s + order_s;
    out.set("core.unattributed_ms", (fit_s - stage_sum) * 1e3);
    out.note(format!(
        "check: stages sum to {stage_sum:.3} s = {:.1}% of fit_s {fit_s:.3} s; gnn.train is {:.1}%; \
         the rest is reference embedding, VP-tree build and timing noise",
        100.0 * stage_sum / fit_s,
        100.0 * train_s / fit_s
    ));
    Ok(())
}

/// `FittedModel::assign` and the two calls it is made of: the scan's
/// embedding by `RfGnn::infer_scan` and the 1-NN by `VpTree::nearest`.
pub fn assign_path(rec: &Recorder, tenants: &[Tenant], out: &mut Outcome) -> Result<(), String> {
    let root = rec.span("probe.assign_path", None);
    let parent = root.id();
    let (mut assign, mut infer, mut nearest) = (Vec::new(), Vec::new(), Vec::new());
    for tenant in tenants {
        let model = &tenant.model;
        let graph = BipartiteGraph::from_samples(model.samples()).map_err(|e| e.to_string())?;
        let mac_index: HashMap<MacAddr, usize> = model
            .macs()
            .iter()
            .enumerate()
            .map(|(j, &m)| (m, j))
            .collect();
        for (i, scan) in tenant.site.held_out.iter().enumerate() {
            let (_, seconds) = rec.time("core.assign", parent, || model.assign(scan));
            assign.push(seconds * 1e6);
            let neighbors: Vec<(usize, f64)> = scan
                .iter()
                .filter_map(|(mac, rssi)| {
                    mac_index
                        .get(&mac)
                        .map(|&j| (graph.mac_node(j), rssi.edge_weight()))
                })
                .collect();
            let (embedding, seconds) = rec.time("gnn.infer_scan", parent, || {
                model.gnn().infer_scan(&graph, &neighbors, i as u64)
            });
            infer.push(seconds * 1e6);
            let embedding = embedding?;
            let (_, seconds) = rec.time("nn.nearest", parent, || {
                model.nn_index().nearest(&embedding)
            });
            nearest.push(seconds * 1e6);
        }
    }
    root.finish();
    out.set("core.assign_us", median(&assign));
    out.set("gnn.infer_scan_us", median(&infer));
    out.set("nn.nearest_us", median(&nearest));
    Ok(())
}

/// Saves each tenant's artifact into `dir`.
pub fn write_artifacts(dir: &Path, tenants: &[Tenant]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for tenant in tenants {
        let path = dir.join(format!("{}.json", tenant.name()));
        tenant.model.save(&path).map_err(|e| e.to_string())?;
        age_artifact(&path)?;
    }
    Ok(())
}

/// Moves an artifact's mtime an hour back. The registry re-reads and
/// hashes an artifact on every hit while its mtime is within
/// `MTIME_GRANULARITY` of the last check; artifacts written just before
/// serving would pay that, which a deployment serving old artifacts
/// never does.
pub fn age_artifact(path: &Path) -> Result<(), String> {
    let file = std::fs::File::options()
        .write(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    file.set_modified(SystemTime::now() - Duration::from_secs(3600))
        .map_err(|e| format!("ageing {}: {e}", path.display()))
}

/// Loading an artifact, whole and in parts: `SharedRegistry::get` on a
/// miss, and the `Json::parse`, `FittedModel::from_json_str` and
/// `VpTree::build` it is made of.
pub fn artifacts(
    rec: &Recorder,
    dir: &Path,
    tenants: &[Tenant],
    out: &mut Outcome,
) -> Result<(), String> {
    let root = rec.span("probe.artifacts", None);
    let parent = root.id();
    let (mut kb, mut parse, mut from_json, mut build, mut load) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for tenant in tenants {
        let path = dir.join(format!("{}.json", tenant.name()));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        kb.push(text.len() as f64 / 1024.0);
        let (parsed, seconds) = rec.time("json.parse", parent, || Json::parse(&text));
        parsed.map_err(|e| e.to_string())?;
        parse.push(seconds * 1e3);
        let (model, seconds) = rec.time("core.from_json", parent, || {
            FittedModel::from_json_str(&text)
        });
        let model = model.map_err(|e| e.to_string())?;
        check_config(model.config())?;
        from_json.push(seconds * 1e3);
        let (_, seconds) = rec.time("nn.build", parent, || {
            VpTree::build(model.references(), |i| !model.samples()[i].is_empty())
        });
        build.push(seconds * 1e3);
        let registry = SharedRegistry::new(RegistryConfig::new(dir));
        let (fetched, seconds) =
            rec.time("registry.get_miss", parent, || registry.get(tenant.name()));
        let fetch = fetched.map(|(_, fetch)| fetch).map_err(|e| e.to_string());
        out.check(fetch == Ok(Fetch::Miss), || {
            format!("registry probe of {}: {fetch:?}", tenant.name())
        });
        load.push(seconds * 1e3);
    }
    root.finish();
    out.set("model.artifact_kb", median(&kb));
    out.set("json.artifact_parse_ms", median(&parse));
    out.set("core.from_json_ms", median(&from_json));
    out.set("nn.build_ms", median(&build));
    out.set("registry.load_ms", median(&load));
    Ok(())
}

/// One probe request: an `assign_batch` frame for held-out scans of one
/// tenant.
pub struct Frame {
    pub tenant: usize,
    pub scans: Vec<usize>,
    pub text: String,
}

impl Frame {
    pub fn new(tenants: &[Tenant], tenant: usize, scans: Vec<usize>) -> Self {
        let text = tenants[tenant].frame(0, &scans);
        Self {
            tenant,
            scans,
            text,
        }
    }
}

/// Frame parsing (`protocol::parse_frame`) and `Daemon::handle_line` in
/// process on registry hits with the answer cache off, against
/// `assign_stream` of the same scans for the daemon's self time. With a
/// router, also the hop it adds: `Router::handle_line` against
/// `Daemon::handle_line` on the same registry- and cache-hit request.
pub fn protocol_and_daemon(
    rec: &Recorder,
    dir: &Path,
    tenants: &[Tenant],
    frames: &[Frame],
    router: Option<(&Router, usize)>,
    out: &mut Outcome,
) -> Result<(), String> {
    let root = rec.span("probe.protocol_daemon", None);
    let parent = root.id();
    let mut frame_kb = Vec::new();
    let mut parse = Vec::new();
    for frame in frames {
        frame_kb.push(frame.text.len() as f64 / 1024.0);
        let (parsed, seconds) =
            rec.time("protocol.parse_frame", parent, || parse_frame(&frame.text));
        out.check(parsed.is_ok(), || "probe frame did not parse".to_owned());
        parse.push(seconds * 1e6);
    }
    out.set("protocol.frame_kb", median(&frame_kb));
    out.set("protocol.parse_us", median(&parse));

    let daemon = resident_daemon(dir, tenants, 0)?;
    let (mut handle, mut self_us) = (Vec::new(), Vec::new());
    for frame in frames {
        let tenant = &tenants[frame.tenant];
        let (response, seconds) = rec.time("daemon.handle_line", parent, || {
            daemon.handle_line(&frame.text).0.to_string()
        });
        let checked = tenant.check_response(&frame.scans, &response);
        out.check(checked.is_ok(), || format!("daemon probe: {checked:?}"));
        let scans: Vec<_> = frame
            .scans
            .iter()
            .map(|&s| tenant.site.held_out[s].clone())
            .collect();
        let (_, assign_s) = rec.time("core.assign_stream", parent, || {
            tenant.model.assign_stream(&scans, 1)
        });
        handle.push(seconds * 1e6);
        self_us.push((seconds - assign_s) * 1e6);
    }
    out.set("daemon.handle_p50_us", quantile(&handle, 0.5));
    out.set("daemon.handle_p99_us", quantile(&handle, 0.99));
    out.set("daemon.handle_self_us", median(&self_us));

    if let Some((router, assign_cache)) = router {
        // Each request is sent twice and the second is timed, so both
        // sides answer it from a resident model and the answer cache.
        let daemon = resident_daemon(dir, tenants, assign_cache)?;
        let (mut direct, mut routed) = (Vec::new(), Vec::new());
        for frame in frames {
            daemon.handle_line(&frame.text);
            let (_, seconds) = rec.time("daemon.handle_line", parent, || {
                daemon.handle_line(&frame.text)
            });
            direct.push(seconds * 1e6);
            router.handle_line(&frame.text);
            let (response, seconds) = rec.time("router.handle_line", parent, || {
                router.handle_line(&frame.text).0
            });
            let checked = tenants[frame.tenant].check_response(&frame.scans, &response);
            out.check(checked.is_ok(), || format!("router probe: {checked:?}"));
            routed.push(seconds * 1e6);
        }
        out.set("router.hop_us", median(&routed) - median(&direct));
    }
    root.finish();
    Ok(())
}

/// An in-process daemon over `dir` with every tenant's model loaded.
fn resident_daemon(dir: &Path, tenants: &[Tenant], assign_cache: usize) -> Result<Daemon, String> {
    let daemon = Daemon::new(
        DaemonConfig::new(RegistryConfig::new(dir).assign_cache(assign_cache)).threads(1),
    );
    for tenant in tenants {
        daemon
            .registry()
            .get(tenant.name())
            .map_err(|e| format!("loading {}: {e}", tenant.name()))?;
    }
    Ok(daemon)
}
