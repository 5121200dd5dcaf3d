//! Locally essential tree (LET) construction over passive-target RMA
//! (§3.1).
//!
//! Each rank exposes three windows: its source-tree **skeleton** (node
//! metadata), its tree-ordered **particles**, and its per-cluster
//! **modified charges**. A rank then builds the LET for every remote
//! rank completely asynchronously: it fetches the skeleton with one
//! one-sided get, runs the *local* batch-MAC traversal against the
//! remote node geometry, and fetches exactly the data the traversal
//! demands — modified charges for MAC-accepted clusters, raw particles
//! for near/undersized clusters. No remote rank takes any action.
//!
//! Assembly is staged so a pipelined epoch can overlap the fill with
//! local work: **issue** ([`issue_remote_let`]) fetches the skeleton and
//! runs the traversal, **plan** ([`plan_chunks`]) groups the demanded
//! clusters into fetch chunks with exact per-chunk cost metadata, and
//! **land** ([`land_remote_let`]) executes the chunks' gets — in the
//! same per-cluster order the monolithic fill used, so staging changes
//! neither the fetched bytes nor the recorded traffic. The **consume**
//! stage is the evaluation ([`eval_remote_into`]).
//!
//! Two consumption modes share those stages:
//!
//! - **Retain** ([`land_remote_let`] then [`eval_remote_into`]): land
//!   every chunk into one [`RemoteLet`], evaluate afterwards. Peak
//!   resident remote payload = the whole LET.
//! - **Stream** ([`stream_remote_let`]): land one chunk, evaluate just
//!   that chunk's clusters into persistent per-batch partials, drop the
//!   payload, land the next. Peak resident remote payload = the largest
//!   single chunk, which [`plan_chunks`] caps at the caller's byte
//!   budget — the memory-bounded mode that lets a rank's LET far exceed
//!   its staging memory.
//!
//! Both modes execute identical gets in identical order through
//! [`land_chunk`] and identical per-cluster math through the shared P2P
//! block (`bltc_core::p2p`), so potentials, forces, op counts, and
//! recorded traffic are bitwise independent of the mode and of the
//! budget.

use std::collections::BTreeMap;

use rayon::prelude::*;

use bltc_core::config::BltcParams;
use bltc_core::cost::OpCounts;
use bltc_core::geometry::{BoundingBox, Point3};
use bltc_core::interp::tensor::TensorGrid;
use bltc_core::mac::{Mac, MacDecision};
use bltc_core::p2p::{BlockKernel, Sources, Targets};
use bltc_core::tree::{batch::TargetBatches, ClusterNode};
use mpi_sim::Window;

/// Wire format of one source-tree node — the skeleton entry exchanged
/// during LET construction. Geometry is reduced to the bounding box;
/// center and radius are rederived exactly as `SourceTree` derives them,
/// so the remote MAC sees bit-identical geometry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeMeta {
    min: [f64; 3],
    max: [f64; 3],
    start: u32,
    end: u32,
    children: [u32; 8],
    num_children: u8,
    level: u16,
}

impl NodeMeta {
    pub(crate) fn from_node(n: &ClusterNode) -> Self {
        Self {
            min: [n.bbox.min.x, n.bbox.min.y, n.bbox.min.z],
            max: [n.bbox.max.x, n.bbox.max.y, n.bbox.max.z],
            start: n.start as u32,
            end: n.end as u32,
            children: n.children,
            num_children: n.num_children,
            level: n.level,
        }
    }

    fn to_cluster(self) -> ClusterNode {
        let bbox = BoundingBox::new(
            Point3::new(self.min[0], self.min[1], self.min[2]),
            Point3::new(self.max[0], self.max[1], self.max[2]),
        );
        ClusterNode {
            center: bbox.midpoint(),
            radius: bbox.radius(),
            bbox,
            start: self.start as usize,
            end: self.end as usize,
            children: self.children,
            num_children: self.num_children,
            level: self.level,
        }
    }
}

/// One-sided traffic this rank originated during LET construction
/// (drives the α–β network model; the runtime's global `TrafficMatrix`
/// records the same operations for the aggregate report).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CommTally {
    /// One-sided operations issued to remote ranks.
    pub messages: u64,
    /// Total remote payload bytes (skeleton + charges + particles).
    pub bytes: u64,
    /// Payload bytes that must additionally be staged onto the device
    /// (charges + particles; the skeleton stays on the host).
    pub device_bytes: u64,
}

impl CommTally {
    fn record(&mut self, bytes: u64, to_device: bool) {
        self.messages += 1;
        self.bytes += bytes;
        if to_device {
            self.device_bytes += bytes;
        }
    }
}

/// One landed remote cluster as P2P source columns: the fetched raw
/// particles of a direct cluster, or the proxy coordinates and fetched
/// modified charges of a MAC-accepted one.
pub(crate) struct RemoteCluster {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    q: Vec<f64>,
}

impl RemoteCluster {
    fn sources(&self) -> Sources<'_> {
        Sources::new(&self.x, &self.y, &self.z, &self.q)
    }

    fn len(&self) -> usize {
        self.q.len()
    }
}

/// The locally essential view of one remote rank's tree.
pub(crate) struct RemoteLet {
    /// Reconstructed remote skeleton.
    pub nodes: Vec<ClusterNode>,
    /// Per-local-batch interaction lists against the remote tree
    /// (approx node ids, direct node ids), in batch order.
    pub per_batch: Vec<(Vec<u32>, Vec<u32>)>,
    /// MAC-accepted clusters: fetched modified charges with their proxy
    /// coordinates (derived locally from the skeleton geometry — proxies
    /// travel for free).
    pub proxies: BTreeMap<u32, RemoteCluster>,
    /// Fetched particles of direct clusters.
    pub parts: BTreeMap<u32, RemoteCluster>,
}

impl RemoteLet {
    /// Total particles fetched from this remote rank.
    pub fn fetched_particles(&self) -> u64 {
        self.parts.values().map(|p| p.len() as u64).sum()
    }
}

/// Recursive batch-vs-remote-skeleton traversal — the exact dual-tree
/// descent of `bltc_core::traversal`, applied to a reconstructed remote
/// tree.
fn traverse_remote(
    mac: &Mac,
    center: Point3,
    radius: f64,
    nodes: &[ClusterNode],
    idx: usize,
    approx: &mut Vec<u32>,
    direct: &mut Vec<u32>,
) {
    let node = &nodes[idx];
    match mac.assess(&center, radius, node) {
        MacDecision::Approximate => approx.push(idx as u32),
        MacDecision::Direct => direct.push(idx as u32),
        MacDecision::Subdivide => {
            for child in node.child_indices() {
                traverse_remote(mac, center, radius, nodes, child, approx, direct);
            }
        }
    }
}

/// The **issue** stage of LET assembly against one remote rank: fetch
/// the skeleton (one bulk one-sided get), run the local batch-MAC
/// traversal against it, and derive the distinct cluster sets the
/// consume stage will need — but fetch no payload data yet. What used to
/// be the front half of a monolithic `build_remote_let` now stands alone
/// so the payload gets can be issued in chunks and overlapped with local
/// work.
pub(crate) struct LetIssue {
    /// Remote rank whose tree this LET views.
    pub target: usize,
    /// Reconstructed remote skeleton.
    pub nodes: Vec<ClusterNode>,
    /// Per-local-batch interaction lists (approx ids, direct ids).
    pub per_batch: Vec<(Vec<u32>, Vec<u32>)>,
    /// Distinct MAC-accepted clusters, ascending.
    pub approx: Vec<u32>,
    /// Distinct direct clusters, ascending.
    pub direct: Vec<u32>,
    /// Payload bytes of the skeleton get (host-side metadata; never
    /// staged to the device).
    pub skeleton_bytes: u64,
}

pub(crate) fn issue_remote_let(
    target: usize,
    batches: &TargetBatches,
    params: &BltcParams,
    meta_win: &Window<NodeMeta>,
    tally: &mut CommTally,
) -> LetIssue {
    // Skeleton exchange: one bulk one-sided get of the node array.
    let num_nodes = meta_win.region_len(target);
    let metas = meta_win.lock_shared(target).get(0..num_nodes);
    let skeleton_bytes = (num_nodes * std::mem::size_of::<NodeMeta>()) as u64;
    tally.record(skeleton_bytes, false);
    let nodes: Vec<ClusterNode> = metas.into_iter().map(NodeMeta::to_cluster).collect();

    // Local traversal against the remote skeleton: no communication —
    // one pool task per batch (the paper's OpenMP-parallel LET
    // traversal). Each batch's lists land in that batch's slot, and
    // the distinct-cluster sets are ordered (BTreeSet) and built from
    // the per-batch lists afterwards, so both the lists and the fetch
    // order below are bitwise independent of the pool size.
    let mac = Mac::new(params);
    let mut per_batch: Vec<(Vec<u32>, Vec<u32>)> = batches
        .batches()
        .par_iter()
        .map(|b| {
            let mut approx = Vec::new();
            let mut direct = Vec::new();
            traverse_remote(
                &mac,
                b.center,
                b.radius,
                &nodes,
                0,
                &mut approx,
                &mut direct,
            );
            (approx, direct)
        })
        .collect();
    // Canonical per-batch order: ascending cluster id. The traversal
    // pushes ids in descent order, which is not monotone in the array
    // layout; every consumer accumulates per-cluster contributions
    // additively, so one fixed order pins the fp accumulation order —
    // and ascending id is exactly the order the streaming mode replays
    // chunk by chunk, which is what makes evaluate-and-discard bitwise
    // identical to retain-everything.
    for (approx, direct) in &mut per_batch {
        approx.sort_unstable();
        direct.sort_unstable();
    }
    let mut approx_set = std::collections::BTreeSet::new();
    let mut direct_set = std::collections::BTreeSet::new();
    for (approx, direct) in &per_batch {
        approx_set.extend(approx.iter().copied());
        direct_set.extend(direct.iter().copied());
    }

    LetIssue {
        target,
        nodes,
        per_batch,
        approx: approx_set.into_iter().collect(),
        direct: direct_set.into_iter().collect(),
        skeleton_bytes,
    }
}

/// The retained fetch schedule of one LET: what the pipelined clock
/// needs after the land stage has consumed the [`LetIssue`].
pub(crate) struct LetPlan {
    /// Remote rank this LET views.
    pub target: usize,
    /// Skeleton payload bytes (one host-side get).
    pub skeleton_bytes: u64,
    /// Payload chunks in land order.
    pub chunks: Vec<ChunkPlan>,
}

/// Which payload window a chunk's gets hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkKind {
    /// Modified charges of MAC-accepted clusters.
    Approx,
    /// Raw particles of direct clusters.
    Direct,
}

/// One chunk of the LET fill: a contiguous group of distinct clusters
/// whose payloads are fetched in one passive-target epoch, plus the
/// exact communication and evaluation work the chunk carries. Every
/// count is derived analytically from the interaction lists, so the
/// per-chunk costs sum to exactly the totals the serial accounting
/// records — the reconciliation the pipelined clock's tests pin.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkPlan {
    pub kind: ChunkKind,
    /// Start index into [`LetIssue::approx`] / [`LetIssue::direct`].
    pub first: usize,
    /// Clusters in the chunk.
    pub len: usize,
    /// One-sided gets the chunk issues (one per cluster).
    pub messages: u64,
    /// Payload bytes fetched (all staged onto the device).
    pub bytes: u64,
    /// Remote particles fetched (direct chunks; 0 for approx chunks).
    pub fetched_particles: u64,
    /// Batch–cluster kernel launches evaluating against the chunk.
    pub launches: u64,
    /// Σ batch targets over those launches.
    pub eval_targets: u64,
    /// Σ source count (proxies or particles) over those launches.
    pub eval_sources: u64,
    /// Σ targets × sources — approx or direct interactions per
    /// [`ChunkPlan::kind`].
    pub interactions: u64,
}

/// The **plan** stage: group the distinct clusters of one LET into fetch
/// chunks (approx chunks first, then direct, both ascending — the same
/// order the monolithic fill used) and precompute each chunk's
/// communication payload and evaluation work from the per-batch
/// interaction lists.
///
/// Chunk granularity obeys two caps: at most `chunk_clusters` clusters
/// per chunk, and — when `budget` is set — at most `budget` payload
/// bytes per chunk, so the streaming consumer never holds more than
/// `budget` resident remote bytes. The minimum resident unit is one
/// cluster: a cluster whose payload alone exceeds the budget still gets
/// its own (over-budget) chunk, which the caller can detect by comparing
/// the reported peak against the budget. Every emitted chunk carries at
/// least one cluster — an empty chunk would charge a shared-lock epoch
/// that fetches nothing.
pub(crate) fn plan_chunks(
    issue: &LetIssue,
    batches: &TargetBatches,
    m3: usize,
    chunk_clusters: usize,
    budget: Option<u64>,
) -> Vec<ChunkPlan> {
    // Per-cluster (launches, Σ batch targets) over the interaction lists.
    let mut approx_use: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut direct_use: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (b, (approx, direct)) in batches.batches().iter().zip(&issue.per_batch) {
        let nb = b.num_targets() as u64;
        for &ci in approx {
            let e = approx_use.entry(ci).or_insert((0, 0));
            e.0 += 1;
            e.1 += nb;
        }
        for &ci in direct {
            let e = direct_use.entry(ci).or_insert((0, 0));
            e.0 += 1;
            e.1 += nb;
        }
    }

    let chunk_clusters = chunk_clusters.max(1);
    let mut plans = Vec::new();
    for (kind, ids) in [
        (ChunkKind::Approx, &issue.approx),
        (ChunkKind::Direct, &issue.direct),
    ] {
        let mut start = 0;
        while start < ids.len() {
            let mut plan = ChunkPlan {
                kind,
                first: start,
                len: 0,
                messages: 0,
                bytes: 0,
                fetched_particles: 0,
                launches: 0,
                eval_targets: 0,
                eval_sources: 0,
                interactions: 0,
            };
            while plan.len < chunk_clusters && start + plan.len < ids.len() {
                let ci = ids[start + plan.len];
                let (src, payload, nc) = match kind {
                    ChunkKind::Approx => (m3 as u64, (m3 * 8) as u64, 0),
                    ChunkKind::Direct => {
                        let node = &issue.nodes[ci as usize];
                        let nc = (node.end - node.start) as u64;
                        (nc, nc * 4 * 8, nc)
                    }
                };
                // The first cluster is always admitted (one cluster is
                // the minimum resident unit); after that the byte budget
                // closes the chunk.
                if plan.len > 0 && budget.is_some_and(|b| plan.bytes + payload > b) {
                    break;
                }
                let (cnt, sum_nb) = match kind {
                    ChunkKind::Approx => approx_use[&ci],
                    ChunkKind::Direct => direct_use[&ci],
                };
                plan.len += 1;
                plan.messages += 1;
                plan.bytes += payload;
                plan.fetched_particles += nc;
                plan.launches += cnt;
                plan.eval_targets += sum_nb;
                plan.eval_sources += cnt * src;
                plan.interactions += sum_nb * src;
            }
            if plan.len == 0 {
                // Defensive: never emit a zero-cluster chunk — the
                // packing loop always admits at least one cluster, but a
                // regression here must not charge empty lock epochs.
                break;
            }
            start += plan.len;
            plans.push(plan);
        }
    }
    plans
}

/// Land one planned chunk: execute its per-cluster one-sided gets in
/// ascending cluster order under a single shared-lock epoch, inserting
/// the payloads into the caller's staging maps. Both the retained
/// ([`land_remote_let`]) and the streaming ([`stream_remote_let`])
/// assemblies go through this one implementation, so their recorded
/// traffic and fetched bytes are identical by construction.
#[allow(clippy::too_many_arguments)]
fn land_chunk(
    issue: &LetIssue,
    plan: &ChunkPlan,
    part_win: &Window<f64>,
    qhat_win: &Window<f64>,
    m3: usize,
    params: &BltcParams,
    tally: &mut CommTally,
    proxies: &mut BTreeMap<u32, RemoteCluster>,
    parts: &mut BTreeMap<u32, RemoteCluster>,
) {
    match plan.kind {
        ChunkKind::Approx => {
            let guard = qhat_win.lock_shared(issue.target);
            for &ni in &issue.approx[plan.first..plan.first + plan.len] {
                let base = ni as usize * m3;
                let q = guard.get(base..base + m3);
                tally.record((m3 * 8) as u64, true);
                let mut cols = Default::default();
                TensorGrid::new(params.degree, &issue.nodes[ni as usize].bbox)
                    .extend_proxy_columns(&mut cols);
                let [x, y, z] = cols;
                proxies.insert(ni, RemoteCluster { x, y, z, q });
            }
        }
        ChunkKind::Direct => {
            let guard = part_win.lock_shared(issue.target);
            for &ni in &issue.direct[plan.first..plan.first + plan.len] {
                let node = &issue.nodes[ni as usize];
                let flat = guard.get(4 * node.start..4 * node.end);
                tally.record((flat.len() * 8) as u64, true);
                let nc = node.end - node.start;
                let mut p = RemoteCluster {
                    x: Vec::with_capacity(nc),
                    y: Vec::with_capacity(nc),
                    z: Vec::with_capacity(nc),
                    q: Vec::with_capacity(nc),
                };
                for j in 0..nc {
                    p.x.push(flat[4 * j]);
                    p.y.push(flat[4 * j + 1]);
                    p.z.push(flat[4 * j + 2]);
                    p.q.push(flat[4 * j + 3]);
                }
                parts.insert(ni, p);
            }
        }
    }
}

/// The **land** stage: execute the planned chunks' one-sided gets —
/// per-cluster, in exactly the order the monolithic fill used, so the
/// recorded traffic and the fetched data are byte-identical to the
/// unchunked assembly (each chunk merely gets its own passive-target
/// epoch, which costs nothing in the α–β model). Consumes the issue
/// stage's skeleton and lists into the finished [`RemoteLet`].
pub(crate) fn land_remote_let(
    issue: LetIssue,
    plans: &[ChunkPlan],
    part_win: &Window<f64>,
    qhat_win: &Window<f64>,
    m3: usize,
    params: &BltcParams,
    tally: &mut CommTally,
) -> RemoteLet {
    let mut proxies = BTreeMap::new();
    let mut parts = BTreeMap::new();
    for plan in plans {
        land_chunk(
            &issue,
            plan,
            part_win,
            qhat_win,
            m3,
            params,
            tally,
            &mut proxies,
            &mut parts,
        );
    }

    RemoteLet {
        nodes: issue.nodes,
        per_batch: issue.per_batch,
        proxies,
        parts,
    }
}

/// Evaluate this LET's contribution to the rank's potentials — or, for
/// a [`BlockKernel::Field`], potentials **and gradients**.
///
/// `out` holds `kernel.columns()` columns indexed in reordered (batch)
/// target order. Every cluster is one P2P block, exactly as in
/// `bltc_core::engine::eval_batch_into`: approximation via Eq. 11
/// against the fetched modified charges, direct summation via Eq. 9
/// against the fetched particles. No RMA happens here — the LET was
/// fully fetched during setup, so gradient evaluation adds **zero**
/// communication (an invariant the test suite asserts against the
/// runtime's traffic matrix). `device_bytes` accumulates the modeled
/// per-launch memory traffic for the GPU clock: three target coordinate
/// arrays plus one array per output column.
pub(crate) fn eval_remote_into(
    let_view: &RemoteLet,
    batches: &TargetBatches,
    kernel: BlockKernel<'_>,
    out: &mut [Vec<f64>],
    ops: &mut OpCounts,
    device_bytes: &mut f64,
) {
    let tp = batches.particles();
    // One pool task per batch: each computes this LET's contribution to
    // its own (disjoint) target range plus its op/byte tallies, starting
    // from zero. The merge below runs in fixed batch order, so both the
    // results and the modeled clocks are bitwise independent of the
    // pool size (the byte tallies are integer-valued f64s — exact under
    // any summation order — and the op counts are integers).
    let partial: Vec<(Vec<Vec<f64>>, OpCounts, f64)> = batches
        .batches()
        .par_iter()
        .zip(&let_view.per_batch)
        .map(|(b, (approx, direct))| {
            let nb = b.num_targets();
            let t = Targets::of(tp, b.start..b.end);
            let mut vals = kernel.zeros(nb);
            let mut bops = OpCounts::default();
            let mut bbytes = 0.0;
            let approx = approx.iter().map(|ci| (&let_view.proxies[ci], true));
            let direct = direct.iter().map(|ci| (&let_view.parts[ci], false));
            for (c, is_approx) in approx.chain(direct) {
                kernel.accumulate(t, c.sources(), &mut vals);
                tally_block(&mut bops, &mut bbytes, kernel, nb, c.len(), is_approx);
            }
            (vals, bops, bbytes)
        })
        .collect();
    for (b, (vals, bops, bbytes)) in batches.batches().iter().zip(&partial) {
        merge_batch(out, b.start, vals);
        *ops = ops.merged(bops);
        *device_bytes += bbytes;
    }
}

/// Count one batch × cluster block: its evaluations on the right path,
/// one launch, and its modeled device bytes.
fn tally_block(
    ops: &mut OpCounts,
    bytes: &mut f64,
    kernel: BlockKernel<'_>,
    nb: usize,
    nc: usize,
    is_approx: bool,
) {
    if is_approx {
        ops.approx_interactions += (nb * nc) as u64;
    } else {
        ops.direct_interactions += (nb * nc) as u64;
    }
    ops.kernel_launches += 1;
    *bytes += ((nb * (3 + kernel.columns()) + nc * 4) * 8) as f64;
}

/// Add one batch's partial columns into the rank's output columns at
/// the batch's target offset.
fn merge_batch(out: &mut [Vec<f64>], start: usize, vals: &[Vec<f64>]) {
    for (dst, src) in out.iter_mut().zip(vals) {
        for (slot, v) in dst[start..start + src.len()].iter_mut().zip(src) {
            *slot += v;
        }
    }
}

/// The **stream** mode: land each planned chunk, evaluate just that
/// chunk's clusters into persistent per-batch partials, and drop the
/// payload before landing the next — so the resident remote payload
/// never exceeds one chunk (which [`plan_chunks`] bounds by the caller's
/// byte budget).
///
/// Bitwise identity with the retained path ([`land_remote_let`] +
/// [`eval_remote_into`]) holds by construction:
///
/// * the gets run through the same [`land_chunk`], in the same order —
///   identical payloads and recorded traffic;
/// * each target slot accumulates per-cluster contributions in ascending
///   cluster id — exactly the sorted per-batch list order the retained
///   evaluation uses — into a partial that starts at zero and is merged
///   into `out` once per LET, the same single merge the retained path
///   performs per batch;
/// * op counts and modeled device bytes are integer-valued, so their
///   accumulation order cannot matter.
///
/// The batch loop runs serially: the chunk loop is the outer loop here,
/// and a serial inner loop is trivially independent of the host pool
/// size. Returns the peak resident payload bytes (the largest single
/// chunk landed).
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_remote_let(
    issue: &LetIssue,
    plans: &[ChunkPlan],
    batches: &TargetBatches,
    part_win: &Window<f64>,
    qhat_win: &Window<f64>,
    m3: usize,
    params: &BltcParams,
    tally: &mut CommTally,
    kernel: BlockKernel<'_>,
    out: &mut [Vec<f64>],
    ops: &mut OpCounts,
    device_bytes: &mut f64,
) -> u64 {
    let tp = batches.particles();
    let mut vals: Vec<Vec<Vec<f64>>> = batches
        .batches()
        .iter()
        .map(|b| kernel.zeros(b.num_targets()))
        .collect();
    let mut lops = OpCounts::default();
    let mut lbytes = 0.0;
    let mut peak = 0u64;

    let mut proxies = BTreeMap::new();
    let mut parts = BTreeMap::new();
    for plan in plans {
        land_chunk(
            issue,
            plan,
            part_win,
            qhat_win,
            m3,
            params,
            tally,
            &mut proxies,
            &mut parts,
        );
        peak = peak.max(plan.bytes);
        if plan.len == 0 {
            continue;
        }
        let is_approx = plan.kind == ChunkKind::Approx;
        let (ids, landed) = if is_approx {
            (&issue.approx, &proxies)
        } else {
            (&issue.direct, &parts)
        };
        let (lo, hi) = (ids[plan.first], ids[plan.first + plan.len - 1]);
        for ((b, (approx, direct)), v) in batches
            .batches()
            .iter()
            .zip(&issue.per_batch)
            .zip(vals.iter_mut())
        {
            let nb = b.num_targets();
            let list = if is_approx { approx } else { direct };
            // The batch list is sorted ascending, so the clusters this
            // chunk holds form one contiguous run.
            let s = list.partition_point(|&c| c < lo);
            let e = list.partition_point(|&c| c <= hi);
            for ci in &list[s..e] {
                let c = &landed[ci];
                kernel.accumulate(Targets::of(tp, b.start..b.end), c.sources(), v);
                tally_block(&mut lops, &mut lbytes, kernel, nb, c.len(), is_approx);
            }
        }
        // Evaluate-and-discard: the payload dies here, before the next
        // chunk lands.
        proxies.clear();
        parts.clear();
    }

    for (b, v) in batches.batches().iter().zip(&vals) {
        merge_batch(out, b.start, v);
    }
    *ops = ops.merged(&lops);
    *device_bytes += lbytes;
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::particles::ParticleSet;

    fn tiny_batches() -> TargetBatches {
        let ps = ParticleSet::random_cube(64, 7);
        let params = BltcParams::new(0.7, 2, 8, 16);
        TargetBatches::build(&ps, &params)
    }

    /// A hand-built issue whose every batch demands every one of
    /// `n_approx` MAC-accepted clusters (payload `m3 * 8` bytes each).
    fn approx_issue(n_approx: usize, batches: &TargetBatches) -> LetIssue {
        let ids: Vec<u32> = (0..n_approx as u32).collect();
        LetIssue {
            target: 1,
            nodes: Vec::new(),
            per_batch: batches
                .batches()
                .iter()
                .map(|_| (ids.clone(), Vec::new()))
                .collect(),
            approx: ids,
            direct: Vec::new(),
            skeleton_bytes: 0,
        }
    }

    /// A direct-only issue with one node per cluster, `nc` particles
    /// each (payload `nc * 32` bytes per cluster).
    fn direct_issue(n_direct: usize, nc: usize, batches: &TargetBatches) -> LetIssue {
        let bbox = BoundingBox::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0));
        let nodes: Vec<ClusterNode> = (0..n_direct)
            .map(|i| ClusterNode {
                center: bbox.midpoint(),
                radius: bbox.radius(),
                bbox,
                start: i * nc,
                end: (i + 1) * nc,
                children: [0; 8],
                num_children: 0,
                level: 0,
            })
            .collect();
        let ids: Vec<u32> = (0..n_direct as u32).collect();
        LetIssue {
            target: 1,
            nodes,
            per_batch: batches
                .batches()
                .iter()
                .map(|_| (Vec::new(), ids.clone()))
                .collect(),
            approx: Vec::new(),
            direct: ids,
            skeleton_bytes: 0,
        }
    }

    #[test]
    fn exact_multiple_cluster_counts_emit_no_empty_trailing_chunk() {
        let b = tiny_batches();
        // 6 clusters at chunk size 3: exactly 2 chunks of 3 — a naive
        // split must not append a zero-cluster trailing plan that would
        // charge an empty shared-lock epoch.
        let plans = plan_chunks(&approx_issue(6, &b), &b, 27, 3, None);
        assert_eq!(plans.len(), 2);
        assert_eq!(
            plans.iter().map(|p| (p.first, p.len)).collect::<Vec<_>>(),
            vec![(0, 3), (3, 3)]
        );
        assert!(plans.iter().all(|p| p.len > 0), "no empty chunk plans");
        assert_eq!(plans.iter().map(|p| p.messages).sum::<u64>(), 6);

        // Chunk size exactly the cluster count: one full chunk.
        let plans = plan_chunks(&approx_issue(4, &b), &b, 27, 4, None);
        assert_eq!(plans.len(), 1);
        assert_eq!((plans[0].first, plans[0].len), (0, 4));
    }

    #[test]
    fn byte_budget_closes_chunks_below_the_cluster_cap() {
        let b = tiny_batches();
        // 27 * 8 = 216 bytes per approx cluster; a 500-byte budget
        // admits two per chunk even though the cluster cap allows 100.
        let plans = plan_chunks(&approx_issue(5, &b), &b, 27, 100, Some(500));
        assert_eq!(
            plans.iter().map(|p| p.len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert!(plans.iter().all(|p| p.bytes <= 500));
        assert_eq!(plans.iter().map(|p| p.messages).sum::<u64>(), 5);

        // Direct clusters: 4 particles × 32 bytes = 128 bytes each.
        let plans = plan_chunks(&direct_issue(5, 4, &b), &b, 27, 100, Some(300));
        assert_eq!(
            plans.iter().map(|p| p.len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert!(plans.iter().all(|p| p.bytes <= 300));
        assert_eq!(plans.iter().map(|p| p.fetched_particles).sum::<u64>(), 20);
    }

    #[test]
    fn oversized_single_cluster_still_gets_its_own_chunk() {
        let b = tiny_batches();
        // A 1-byte budget is below any single payload: the planner must
        // degrade to one cluster per chunk (the minimum resident unit),
        // never stall or emit empty plans.
        let plans = plan_chunks(&approx_issue(3, &b), &b, 27, 100, Some(1));
        assert_eq!(plans.len(), 3);
        assert!(plans.iter().all(|p| p.len == 1));
        assert!(plans.iter().all(|p| p.bytes == 216));
    }

    #[test]
    fn budget_never_changes_chunk_totals() {
        let b = tiny_batches();
        let issue = direct_issue(7, 3, &b);
        let base = plan_chunks(&issue, &b, 27, 4, None);
        for budget in [None, Some(u64::MAX), Some(200), Some(96), Some(1)] {
            let plans = plan_chunks(&issue, &b, 27, 4, budget);
            assert!(plans.iter().all(|p| p.len > 0));
            for field in [
                |p: &ChunkPlan| p.messages,
                |p: &ChunkPlan| p.bytes,
                |p: &ChunkPlan| p.fetched_particles,
                |p: &ChunkPlan| p.launches,
                |p: &ChunkPlan| p.eval_targets,
                |p: &ChunkPlan| p.eval_sources,
                |p: &ChunkPlan| p.interactions,
            ] {
                assert_eq!(
                    plans.iter().map(field).sum::<u64>(),
                    base.iter().map(field).sum::<u64>(),
                    "per-chunk cost totals must be budget-invariant"
                );
            }
        }
    }
}
