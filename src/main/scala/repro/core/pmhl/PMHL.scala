package repro.core.pmhl

import repro.graph.RoadGraph
import repro.partition.SpatialPartitioner
import repro.core.td.{MDE, ShortcutUpdater, TD}
import repro.core.h2h.{BoundaryLabels, CHQuery, H2HIndex, UpwardGraph}
import repro.core.sp.BiDijkstra
import repro.util.Parallel
import scala.collection.mutable

/** Completion times (seconds, cumulative from batch arrival) of the five
  * update stages; query stage j+1 becomes available at `t(j)`.
  */
final case class StageTimes(t: Array[Double]) {
  def total: Double = t.last
  override def toString: String = t.map(x => f"$x%.4f").mkString("[", ", ", "]")
}

/** Partitioned Multi-stage Hub Labeling (§V).
  *
  * Index components (Figure 6):
  *  - per-partition no-boundary MHL (`tdPart`/`updPart`/`labPart`);
  *  - the overlay shortcut arrays (`tdOv`/`updOv`);
  *  - the cross-boundary tree T* (`parentStar`/`depthStar`) and its one
  *    H2H index `labOv`: its boundary rows are the overlay labels, its
  *    non-boundary rows (`stages = 5` only) the cross-boundary index `L*`;
  *  - the post-boundary forest over the extended partitions
  *    (`post`/`labPost`).
  *
  * Build steps:
  *  - ov_input: each partition's non-boundary vertices eliminated by min
  *    degree ([[MDE.contract]]); the boundary graphs they leave plus the
  *    inter edges are the overlay input;
  *  - overlay: `tdOv`, `updOv`;
  *  - partitions: each partition's elimination resumed with B_i in overlay
  *    rank order ([[MDE.resume]]), so it is eliminated once; then
  *    `updPart` and `labPart`;
  *  - post: T*, its LCA and the boundary rows of `labOv`, then the
  *    post-boundary forest, whose chain rows read them;
  *  - cross: the non-boundary rows of `labOv`.
  *
  * Each partition has its own vertex numbering: `tdPart(i)`, `updPart(i)`
  * and `labPart(i)` run over its n_i vertices in local ids (`localId`;
  * `members(i)` maps them back). Ids are translated only where this layer
  * meets the others: the U2 batch and the overlay changes it reports, the
  * Q3 side vectors, and one global-id copy of each non-boundary bag, made
  * at build, that T* and the post-boundary forest share (their `sc` rows
  * alias the partition TDs'). Boundary orders inside partition TDs are
  * fixed to the overlay MDE order, satisfying the boundary-first
  * consistency conditions of §IV-B.
  *
  * Query stages (Figure 7): 1 BiDijkstra → 2 PCH → 3 no-boundary →
  * 4 post-boundary → 5 cross-boundary (+post-boundary for same-partition).
  *
  * The cross-boundary tree T* is built once, for every `stages`, as one
  * [[UpwardGraph]]: boundary vertices keep their overlay parents, depths,
  * bags and shortcuts, the others their partition parents. PCH walks it
  * ([[CHQuery]]). Its boundary part is closed upward and is the overlay
  * tree, so the H2H rows of T* at boundary vertices are the overlay labels
  * and T*'s LCA of two boundary vertices is the overlay's (Lemma 2): one
  * [[H2HIndex]] over T* serves the overlay queries of Q3, Q4 and D, and its
  * non-boundary rows, walked down from each partition's attach roots, are
  * `L*` (Algorithm 1, Theorem 3). The partitions' boundary rows are not
  * needed: a boundary vertex's partition bag is a subset of its overlay
  * bag (the overlay eliminates the same boundary order over a superset of
  * the edges), and in each shared slot the overlay shortcut is at most the
  * partition one (the overlay input holds the partition's phase-1 values).
  *
  * The post-boundary index of partition i is the H2H index of an MDE over
  * its intra edges plus the clique D of all-pair global distances over its
  * boundary B_i. That MDE needs no running: boundary vertices go last, so
  * it eliminates the non-boundary vertices with the partition TD's bags
  * and shortcuts (the clique touches only boundary-owned slots), and then
  * eliminates B_i in overlay rank order with each slot's shortcut equal to
  * D, which is exact. This is the tree/weight split of Customizable CH
  * (Dibbelt, Strasser, Wagner, ACM JEA 2016). So `post` is one
  * [[UpwardGraph]] over all n vertices: non-boundary rows are T*'s rows,
  * and each B_i is a chain in overlay rank order whose rows hold D (only
  * pairs with D < `Inf`: a B_i split across components is several chains).
  * U4 writes the changed D entries into the chain rows and relabels below
  * them and below the partition's changed non-boundary rows.
  *
  * `stages` < 5 builds and maintains only the first `stages` of them; the
  * PSP baselines of [35] are this index stopped early: N-CH-P is
  * `stages = 2` (shortcut arrays only, no labels) and P-TD-P is
  * `stages = 4` (no cross-boundary index).
  */
final class PMHL(val g: RoadGraph, val k: Int, val threads: Int, val stages: Int = 5) {
  import TD.Inf
  require(stages == 2 || stages == 4 || stages == 5, s"stages must be 2, 4 or 5, not $stages")
  private val labels = stages >= 4

  val n: Int = g.n
  val pr = SpatialPartitioner.partition(g, k)
  val part: Array[Int] = pr.part
  val boundary: Array[Boolean] = pr.boundary
  /** `members(i)(l)`: the global id of partition i's local vertex l. */
  val members: Array[Array[Int]] = pr.members
  /** Each vertex's local id in its partition. */
  val localId: Array[Int] = pr.localId
  /** B_i in global ids, ascending. */
  val partBoundary: Array[Array[Int]] = Array.tabulate(k)(pr.boundaryOf)
  private val partBoundaryLocal: Array[Array[Int]] = partBoundary.map(_.map(localId))

  private val edges = SpatialPartitioner.splitEdges(g, pr)

  // Index state (filled by build()).
  /** Partition TDs and their indexes, in local ids. */
  var tdPart: Array[TD] = _
  var updPart: Array[ShortcutUpdater] = _
  var labPart: Array[H2HIndex] = _
  var tdOv: TD = _
  var updOv: ShortcutUpdater = _
  /** T*: parent (-1 for a root) and depth of every vertex. */
  var parentStar: Array[Int] = _
  var depthStar: Array[Int] = _
  /** H2H labels of T*: the overlay labels at boundary vertices, `L*` at
    * the others (null rows below `stages = 5`).
    */
  var labOv: H2HIndex = _
  /** The post-boundary forest (global ids) and its labels. */
  var post: UpwardGraph = _
  var labPost: H2HIndex = _
  private var pchQuery: CHQuery = _
  /** Global-id bag of each non-boundary vertex (null for boundary ones). */
  private var bagGlobal: Array[Array[Int]] = _
  /** Per partition, the non-boundary vertices whose T* parent is a
    * boundary vertex or none: the tops of its `L*` rows (`stages = 5`).
    */
  private var attachRoots: Array[Array[Int]] = _

  /** `labOv` under the name the benchmark's cross-entry count reads; null
    * below `stages = 5`.
    */
  def cross: H2HIndex = if (stages == 5) labOv else null

  /** Steps 1–6 of §V-C; returns the wall seconds of five steps (ov_input,
    * overlay, partitions, post, cross), near zero for a skipped step.
    */
  def build(): Array[Double] = {
    val times = new mutable.ArrayBuffer[Double]()
    def timed(f: => Unit): Unit = {
      val t0 = System.nanoTime(); f; times += (System.nanoTime() - t0) / 1e9
    }
    // Step 1+2 (optimized, Theorem 2): contract non-boundary per partition
    // to obtain the overlay input directly from the partition MDE.
    var partials: Array[MDE.Partial] = null
    var ovEdges: Seq[(Int, Int, Int)] = null
    timed {
      val ps = SpatialPartitioner.contractPartitions(pr, edges, threads)
      ovEdges = SpatialPartitioner.overlayEdges(pr, edges, ps)
      partials = ps.toArray
    }
    // Step 3: overlay graph + overlay shortcuts (its labels are T*'s).
    timed {
      tdOv = MDE.decompose(n, ovEdges)
      updOv = new ShortcutUpdater(tdOv)
    }
    // Step 1 (full): partition MHLs, each resuming its phase-1 elimination
    // with B_i in overlay order.
    timed {
      tdPart = new Array[TD](k); updPart = new Array[ShortcutUpdater](k)
      if (labels) labPart = new Array[H2HIndex](k)
      bagGlobal = new Array[Array[Int]](n)
      Parallel.run((0 until k).map(i => () => {
        val ms = members(i)
        val forced = Array.tabulate(ms.length)(l => boundary(ms(l)))
        val td = MDE.resume(partials(i), Array.tabulate(ms.length)(l => tdOv.rank(ms(l))))
        partials(i) = null
        tdPart(i) = td
        updPart(i) = new ShortcutUpdater(td, forced)
        var l = 0
        while (l < ms.length) { if (!forced(l)) bagGlobal(ms(l)) = td.bag(l).map(ms); l += 1 }
        if (labels) { labPart(i) = new H2HIndex(td); labPart(i).build(); td.buildLca() }
      }), threads)
    }
    // Steps 4+5: T* and its boundary labels, then the post-boundary forest
    // over the extended partitions.
    timed {
      parentStar = new Array[Int](n); depthStar = new Array[Int](n)
      val bagStar = new Array[Array[Int]](n); val scStar = new Array[Array[Int]](n)
      // The overlay chain above a boundary vertex is its T* chain.
      var v = 0
      while (v < n) {
        if (boundary(v)) {
          parentStar(v) = tdOv.parent(v); depthStar(v) = tdOv.depth(v)
          bagStar(v) = tdOv.bag(v); scStar(v) = tdOv.sc(v)
        }
        v += 1
      }
      for (i <- 0 until k) attachRows(i, parentStar, depthStar, bagStar, scStar)
      val star = new UpwardGraph(parentStar, depthStar, bagStar, scStar)
      pchQuery = new CHQuery(star)
      if (labels) {
        star.buildLca()
        labOv = new H2HIndex(star)
        labOv.relabel(star.roots.filter(boundary), boundary(_), threads)
        val parent = new Array[Int](n); val depth = new Array[Int](n)
        val bag = new Array[Array[Int]](n); val sc = new Array[Array[Int]](n)
        Parallel.run((0 until k).map(i => () => {
          chainRows(i, parent, depth, bag, sc)
          attachRows(i, parent, depth, bag, sc)
        }), threads)
        post = new UpwardGraph(parent, depth, bag, sc)
        labPost = new H2HIndex(post)
        val rootsBy = Array.fill(k)(new mutable.ArrayBuilder.ofInt)
        post.roots.foreach(r => rootsBy(part(r)) += r)
        Parallel.run((0 until k).map(i => () => { labPost.relabel(rootsBy(i).result()); () }), threads)
        post.buildLca()
      }
    }
    // Step 6: cross-boundary labels, the non-boundary rows of T*.
    timed {
      if (stages == 5) {
        val roots = Array.fill(k)(new mutable.ArrayBuilder.ofInt)
        var v = 0
        while (v < n) {
          if (!boundary(v) && (parentStar(v) == -1 || boundary(parentStar(v)))) roots(part(v)) += v
          v += 1
        }
        attachRoots = roots.map(_.result())
        Parallel.run((0 until k).map(i => () => { labOv.relabel(attachRoots(i)); () }), threads)
      }
    }
    times.toArray
  }

  /** B_i's rows of the post-boundary forest: in ascending overlay rank,
    * each boundary vertex's bag is the later members it has a finite D to,
    * by rank descending, with `sc` = D; its parent is the last of them.
    */
  private def chainRows(i: Int, parent: Array[Int], depth: Array[Int],
                        bag: Array[Array[Int]], sc: Array[Array[Int]]): Unit = {
    val bs = partBoundary(i).sortBy(tdOv.rank)
    val bb = new Array[Int](bs.length); val sb = new Array[Int](bs.length)
    var p = bs.length - 1
    while (p >= 0) {
      val b = bs(p)
      var len = 0
      var q = bs.length - 1
      while (q > p) {
        val d = labOv.query(b, bs(q))
        if (d < Inf) { bb(len) = bs(q); sb(len) = d; len += 1 }
        q -= 1
      }
      bag(b) = java.util.Arrays.copyOf(bb, len); sc(b) = java.util.Arrays.copyOf(sb, len)
      parent(b) = if (len == 0) -1 else bb(len - 1)
      depth(b) = if (parent(b) == -1) 0 else depth(parent(b)) + 1
      p -= 1
    }
  }

  /** Partition i's non-boundary rows of a tree whose boundary rows are
    * set (T*, or the post-boundary forest): the partition parent, the
    * global-id bag and the partition TD's `sc` row, aliased. Parents rank
    * higher, so a walk down the rank order sets a parent's depth first.
    */
  private def attachRows(i: Int, parent: Array[Int], depth: Array[Int],
                         bag: Array[Array[Int]], sc: Array[Array[Int]]): Unit = {
    val td = tdPart(i); val ms = members(i)
    var r = td.n - 1
    while (r >= 0) {
      val l = td.order(r); val v = ms(l)
      if (!boundary(v)) {
        val pl = td.parent(l)
        parent(v) = if (pl == -1) -1 else ms(pl)
        depth(v) = if (pl == -1) 0 else depth(parent(v)) + 1
        bag(v) = bagGlobal(v); sc(v) = td.sc(l)
      }
      r -= 1
    }
  }

  // ------------------------------------------------------------------
  // Queries (stages 1-5)
  // ------------------------------------------------------------------

  /** Q-Stage 1. */
  def queryBiDijkstra(s: Int, t: Int): Int = BiDijkstra.query(g, s, t)

  /** Q-Stage 2: partitioned CH query, a walk up T*. */
  def queryPCH(s: Int, t: Int): Int = pchQuery.query(s, t)

  /** Distances from v to B_part(v) in its partition's no-boundary index. */
  private def noBoundaryVec(v: Int): Array[Int] = {
    val i = part(v); val lv = localId(v)
    partBoundaryLocal(i).map(labPart(i).query(lv, _))
  }

  /** Distances from v to B_part(v) in the post-boundary index. */
  private def postVec(v: Int): Array[Int] = partBoundary(part(v)).map(labPost.query(v, _))

  /** Q-Stage 3: no-boundary query with distance concatenation (§III-C). */
  def queryNoBoundary(s: Int, t: Int): Int = {
    if (s == t) return 0
    if (part(s) == part(t)) {
      val bs = partBoundary(part(s))
      BoundaryLabels.concat(bs, noBoundaryVec(s), bs, noBoundaryVec(t), labOv,
        labPart(part(s)).query(localId(s), localId(t)))
    } else crossConcat(s, t, noBoundaryVec)
  }

  /** Concatenated cross-partition query (cases of §III-C): each side's
    * hubs are B_part(v) at the distances `vec` gives, or the endpoint
    * itself if it is a boundary vertex.
    */
  private def crossConcat(s: Int, t: Int, vec: Int => Array[Int]): Int = {
    def hubs(v: Int) = if (boundary(v)) Array(v) else partBoundary(part(v))
    def dists(v: Int) = if (boundary(v)) Array(0) else vec(v)
    BoundaryLabels.concat(hubs(s), dists(s), hubs(t), dists(t), labOv, Inf)
  }

  /** Q-Stage 4: post-boundary query — same-partition via corrected L'_i. */
  def queryPostBoundary(s: Int, t: Int): Int = {
    if (s == t) return 0
    if (part(s) == part(t)) labPost.query(s, t)
    else crossConcat(s, t, postVec)
  }

  /** Q-Stage 5: cross-boundary 2-hop for cross-partition, L'_i otherwise. */
  def queryCrossBoundary(s: Int, t: Int): Int = {
    if (s == t) return 0
    if (part(s) == part(t)) labPost.query(s, t)
    else labOv.query(s, t)
  }

  // ------------------------------------------------------------------
  // Maintenance (U-Stages 1-5, §V-D)
  // ------------------------------------------------------------------

  /** Apply one update batch through the first `stages` stages; returns
    * their cumulative completion times so the throughput model can open
    * each query stage at the right moment.
    */
  def applyUpdateBatch(batch: Seq[(Int, Int, Int)]): StageTimes = {
    val t0 = System.nanoTime()
    val times = new Array[Double](stages)
    def mark(i: Int): Unit = times(i) = (System.nanoTime() - t0) / 1e9

    // U-Stage 1: on-spot edge update.
    batch.foreach { case (u, v, w) => g.setWeight(u, v, w) }
    mark(0)

    // Classify; intra edges in their partition's local ids.
    val intraBy = Array.fill(k)(new mutable.ArrayBuffer[(Int, Int, Int)]())
    val inter = new mutable.ArrayBuffer[(Int, Int, Int)]()
    batch.foreach { case e @ (u, v, w) =>
      if (part(u) == part(v)) intraBy(part(u)) += ((localId(u), localId(v), w)) else inter += e
    }

    // U-Stage 2: no-boundary shortcut update (partitions parallel, then overlay).
    val partAffected = new Array[Array[Int]](k)
    val partScTouched = new Array[Boolean](k)
    val ovSeedChanges = new java.util.concurrent.ConcurrentLinkedQueue[(Int, Int, Int)]()
    Parallel.run((0 until k).filter(intraBy(_).nonEmpty).map(i => () => {
      val res = updPart(i).applyInputChanges(intraBy(i))
      partAffected(i) = res.affected
      partScTouched(i) = res.affected.nonEmpty
      val ms = members(i)
      res.overlayChanges.foreach { case (a, b, w) => ovSeedChanges.add((ms(a), ms(b), w)) }
    }), threads)
    import scala.jdk.CollectionConverters._
    val ovChanges = inter.toSeq ++ ovSeedChanges.asScala.toSeq
    val ovRes = updOv.applyInputChanges(ovChanges)
    mark(1)
    if (!labels) return StageTimes(times)

    // U-Stage 3: no-boundary label update (partitions ∥ the boundary rows
    // of T*, which are the overlay labels).
    var changedOvLabels: Array[Int] = Array.emptyIntArray
    val labelTasks =
      (0 until k).filter(partScTouched)
        .map(i => () => { labPart(i).updateSubtrees(partAffected(i)); () }) :+
      (() => { changedOvLabels = labOv.updateSubtrees(ovRes.affected, boundary(_)); () })
    Parallel.run(labelTasks, threads)
    val ovChanged = new Array[Boolean](n)
    changedOvLabels.foreach(ovChanged(_) = true)
    mark(2)

    // U-Stage 4: post-boundary index update. D can move only where an
    // overlay label of B_i moved; the non-boundary rows alias the
    // partition TDs', which U2 already brought up to date.
    Parallel.run((0 until k).filter(i => partScTouched(i) || partBoundary(i).exists(b => ovChanged(b)))
      .map(i => () => {
        val affected = new mutable.ArrayBuilder.ofInt
        refreshD(i, ovChanged, affected)
        if (partScTouched(i)) {
          val ms = members(i)
          partAffected(i).foreach(l => if (!boundary(ms(l))) affected += ms(l))
        }
        val a = affected.result()
        if (a.nonEmpty) labPost.updateSubtrees(a)
      }), threads)
    mark(3)

    // U-Stage 5: cross-boundary index update. Partition i's `L*` rows read
    // its own shortcuts and the boundary rows on the T* chains above its
    // attach roots, so it is relabelled if either changed.
    if (stages == 5) {
      def chainChanged(r: Int): Boolean = {
        var a = parentStar(r)
        while (a != -1) { if (ovChanged(a)) return true; a = parentStar(a) }
        false
      }
      Parallel.run((0 until k).filter(i => partScTouched(i) || attachRoots(i).exists(chainChanged))
        .map(i => () => { labOv.relabel(attachRoots(i)); () }), threads)
      mark(4)
    }

    StageTimes(times)
  }

  /** Recompute D at B_i's chain slots whose overlay labels `ovChanged`
    * marks (D is an overlay query, which reads only its endpoints' labels),
    * write the entries that changed and add their rows to `affected`.
    */
  private def refreshD(i: Int, ovChanged: Array[Boolean], affected: mutable.ArrayBuilder.ofInt): Unit =
    partBoundary(i).foreach { b =>
      val bg = post.bag(b); val sc = post.sc(b)
      var changed = false
      var j = 0
      while (j < bg.length) {
        if (ovChanged(b) || ovChanged(bg(j))) {
          val d = labOv.query(b, bg(j))
          if (d != sc(j)) { sc(j) = d; changed = true }
        }
        j += 1
      }
      if (changed) affected += b
    }

  /** Total index entries across the built components (|L| metric): the
    * shortcut slots of the overlay and partition TDs, the label entries of
    * every index (T*'s counts the overlay labels and `L*`), and the
    * post-boundary forest's chain slots; its other rows alias the partition
    * TDs' and are counted there.
    */
  def indexEntries: Long = {
    var s = tdOv.slotCount + tdPart.map(_.slotCount).sum
    if (labels) {
      s += labOv.labelEntries + labPart.map(_.labelEntries).sum + labPost.labelEntries
      partBoundary.foreach(_.foreach(b => s += post.bag(b).length))
    }
    s
  }
}
