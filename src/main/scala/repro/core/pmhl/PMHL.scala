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
  * Index components (Figure 6): per-partition no-boundary MHL
  * (`tdPart`/`labPart`), overlay MHL (`tdOv`/`labOv`), post-boundary
  * partition indexes (`tdPost`/`labPost`) over extended partitions, and
  * the cross-boundary index `L*` ([[CrossBoundary]]).
  *
  * Partition TDs use the global vertex-id space (vertices of other
  * partitions are isolated placeholders); boundary orders inside partition
  * TDs are fixed to the overlay MDE order, satisfying the boundary-first
  * consistency conditions of §IV-B.
  *
  * Query stages (Figure 7): 1 BiDijkstra → 2 PCH → 3 no-boundary →
  * 4 post-boundary → 5 cross-boundary (+post-boundary for same-partition).
  *
  * The cross-boundary tree T* (`parentStar`/`depthStar`) is built once, for
  * every `stages`, as one [[UpwardGraph]]: boundary vertices keep their
  * overlay parents, the others their partition parents. PCH walks it
  * ([[CHQuery]]) over the overlay rows of boundary vertices and the
  * partition rows of the others, and [[CrossBoundary]] is an [[H2HIndex]]
  * over the same tree and rows. The partitions' boundary rows are not
  * needed: a boundary vertex's partition bag is a subset of its overlay
  * bag (the overlay eliminates the same boundary order over a superset of
  * the edges), and in each shared slot the overlay shortcut is at most the
  * partition one (the overlay input holds the partition's phase-1 values).
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
  val partBoundary: Array[Array[Int]] = Array.tabulate(k)(pr.boundaryOf)

  private val edges = SpatialPartitioner.splitEdges(g, pr)

  // Index state (filled by build()).
  var tdPart: Array[TD] = _
  var updPart: Array[ShortcutUpdater] = _
  var labPart: Array[H2HIndex] = _
  var tdOv: TD = _
  var updOv: ShortcutUpdater = _
  var labOv: H2HIndex = _
  var tdPost: Array[TD] = _
  var updPost: Array[ShortcutUpdater] = _
  var labPost: Array[H2HIndex] = _
  /** All-pair global boundary distances per partition: D(i)(a)(b). */
  var dMat: Array[Array[Array[Int]]] = _
  /** T*: parent (-1 for a root) and depth of every vertex. */
  var parentStar: Array[Int] = _
  var depthStar: Array[Int] = _
  var cross: CrossBoundary = _
  private var pchQuery: CHQuery = _

  private def forcedOf(i: Int): Array[Boolean] = {
    val f = new Array[Boolean](n)
    partBoundary(i).foreach(f(_) = true)
    f
  }

  private def computeD(i: Int): Array[Array[Int]] = {
    val bs = partBoundary(i)
    Array.tabulate(bs.length)(a => Array.tabulate(bs.length)(b => labOv.query(bs(a), bs(b))))
  }

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
    var ovEdges: Seq[(Int, Int, Int)] = null
    timed { ovEdges = SpatialPartitioner.overlayEdges(g, pr, edges, threads) }
    // Step 3: overlay graph + overlay MHL.
    timed {
      tdOv = MDE.decompose(n, ovEdges)
      updOv = new ShortcutUpdater(tdOv)
      if (labels) { labOv = new H2HIndex(tdOv); labOv.build(); tdOv.buildLca() }
    }
    // Step 1 (full): partition MHLs with overlay-consistent boundary order.
    timed {
      tdPart = new Array[TD](k); updPart = new Array[ShortcutUpdater](k)
      if (labels) labPart = new Array[H2HIndex](k)
      Parallel.run((0 until k).map(i => () => {
        tdPart(i) = MDE.decompose(n, edges.intra(i), forcedOf(i), tdOv.rank)
        updPart(i) = new ShortcutUpdater(tdPart(i), boundary)
        if (labels) { labPart(i) = new H2HIndex(tdPart(i)); labPart(i).build(); tdPart(i).buildLca() }
      }), threads)
    }
    // Steps 4+5: post-boundary extended partitions.
    timed {
      if (labels) {
        dMat = new Array[Array[Array[Int]]](k)
        tdPost = new Array[TD](k); updPost = new Array[ShortcutUpdater](k)
        labPost = new Array[H2HIndex](k)
        Parallel.run((0 until k).map(i => () => {
          dMat(i) = computeD(i)
          tdPost(i) = MDE.decompose(n, extendedEdges(i), forcedOf(i), tdOv.rank)
          updPost(i) = new ShortcutUpdater(tdPost(i))
          labPost(i) = new H2HIndex(tdPost(i)); labPost(i).build()
          tdPost(i).buildLca()
        }), threads)
      }
    }
    // Step 6: T* and cross-boundary aggregation.
    timed {
      parentStar = Array.tabulate(n)(v => tdOf(v).parent(v))
      // The overlay chain above a boundary vertex is its T* chain; a partition
      // TD lists a vertex's T* parent, of higher rank, before the vertex.
      depthStar = Array.tabulate(n)(v => if (boundary(v)) tdOv.depth(v) else -1)
      for (i <- 0 until k; v <- tdPart(i).order.reverseIterator if !boundary(v) && part(v) == i)
        depthStar(v) = if (parentStar(v) == -1) 0 else depthStar(parentStar(v)) + 1
      val star = new UpwardGraph(parentStar, depthStar,
        Array.tabulate(n)(v => tdOf(v).bag(v)), Array.tabulate(n)(v => tdOf(v).sc(v)))
      pchQuery = new CHQuery(star)
      if (stages == 5) {
        cross = new CrossBoundary(k, boundary, part, labOv, star)
        cross.buildAll(threads)
      }
    }
    times.toArray
  }

  private def extendedEdges(i: Int): Seq[(Int, Int, Int)] = {
    val bs = partBoundary(i)
    val clique = for {
      a <- bs.indices; b <- (a + 1) until bs.length
      if dMat(i)(a)(b) < Inf
    } yield (bs(a), bs(b), dMat(i)(a)(b))
    edges.intra(i) ++ clique
  }

  /** The TD that holds v's T* parent and bag rows. */
  private def tdOf(v: Int): TD = if (boundary(v)) tdOv else tdPart(part(v))

  // ------------------------------------------------------------------
  // Queries (stages 1-5)
  // ------------------------------------------------------------------

  /** Q-Stage 1. */
  def queryBiDijkstra(s: Int, t: Int): Int = BiDijkstra.query(g, s, t)

  /** Q-Stage 2: partitioned CH query, a walk up T*. */
  def queryPCH(s: Int, t: Int): Int = pchQuery.query(s, t)

  private def distVec(lab: H2HIndex, s: Int, bs: Array[Int]): Array[Int] =
    bs.map(lab.query(s, _))

  /** One side of a cross-partition concatenation: its hubs and their
    * distances (a boundary endpoint is its own hub).
    */
  private def side(v: Int, lab: H2HIndex): (Array[Int], Array[Int]) =
    if (boundary(v)) (Array(v), Array(0))
    else { val bs = partBoundary(part(v)); (bs, distVec(lab, v, bs)) }

  /** Q-Stage 3: no-boundary query with distance concatenation (§III-C). */
  def queryNoBoundary(s: Int, t: Int): Int = {
    if (s == t) return 0
    if (part(s) == part(t)) {
      val lab = labPart(part(s)); val bs = partBoundary(part(s))
      BoundaryLabels.concat(bs, distVec(lab, s, bs), bs, distVec(lab, t, bs), labOv, lab.query(s, t))
    } else crossConcat(s, t, labPart(part(s)), labPart(part(t)))
  }

  /** Concatenated cross-partition query (cases of §III-C). */
  private def crossConcat(s: Int, t: Int, labS: H2HIndex, labT: H2HIndex): Int = {
    val (bsS, dsS) = side(s, labS); val (bsT, dsT) = side(t, labT)
    BoundaryLabels.concat(bsS, dsS, bsT, dsT, labOv, Inf)
  }

  /** Q-Stage 4: post-boundary query — same-partition via corrected L'_i. */
  def queryPostBoundary(s: Int, t: Int): Int = {
    if (s == t) return 0
    if (part(s) == part(t)) labPost(part(s)).query(s, t)
    else crossConcat(s, t, labPost(part(s)), labPost(part(t)))
  }

  /** Q-Stage 5: cross-boundary 2-hop for cross-partition, L'_i otherwise. */
  def queryCrossBoundary(s: Int, t: Int): Int = {
    if (s == t) return 0
    if (part(s) == part(t)) labPost(part(s)).query(s, t)
    else cross.query(s, t)
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

    // Classify.
    val intraBy = Array.fill(k)(new mutable.ArrayBuffer[(Int, Int, Int)]())
    val inter = new mutable.ArrayBuffer[(Int, Int, Int)]()
    batch.foreach { case e @ (u, v, _) =>
      if (part(u) == part(v)) intraBy(part(u)) += e else inter += e
    }

    // U-Stage 2: no-boundary shortcut update (partitions parallel, then overlay).
    val partAffected = new Array[Array[Int]](k)
    val partScTouched = new Array[Boolean](k)
    val ovSeedChanges = new java.util.concurrent.ConcurrentLinkedQueue[(Int, Int, Int)]()
    Parallel.run((0 until k).filter(intraBy(_).nonEmpty).map(i => () => {
      val res = updPart(i).applyInputChanges(intraBy(i))
      partAffected(i) = res.affected
      partScTouched(i) = res.affected.nonEmpty
      res.overlayChanges.foreach(ovSeedChanges.add)
    }), threads)
    import scala.jdk.CollectionConverters._
    val ovChanges = inter.toSeq ++ ovSeedChanges.asScala.toSeq
    val ovRes = updOv.applyInputChanges(ovChanges)
    mark(1)
    if (!labels) return StageTimes(times)

    // U-Stage 3: no-boundary label update (partitions ∥ overlay).
    var changedOvLabels: Array[Int] = Array.emptyIntArray
    val labelTasks =
      (0 until k).filter(i => partAffected(i) != null && partAffected(i).nonEmpty)
        .map(i => () => { labPart(i).updateSubtrees(partAffected(i)); () }) :+
      (() => { changedOvLabels = labOv.updateSubtrees(ovRes.affected); () })
    Parallel.run(labelTasks, threads)
    mark(2)

    // U-Stage 4: post-boundary index update.
    val changedOvSet = changedOvLabels.toSet
    Parallel.run((0 until k).filter(i =>
        intraBy(i).nonEmpty || partBoundary(i).exists(changedOvSet.contains)
      ).map(i => () => {
      val newD = computeD(i)
      val bs = partBoundary(i)
      val seeds = new mutable.ArrayBuffer[(Int, Int, Int)]()
      for (a <- bs.indices; b <- (a + 1) until bs.length
           if newD(a)(b) != dMat(i)(a)(b) && (newD(a)(b) < Inf || dMat(i)(a)(b) < Inf))
        seeds += ((bs(a), bs(b), newD(a)(b)))
      dMat(i) = newD
      // Intra changes where both endpoints are boundary are dominated by D.
      intraBy(i).foreach { case e @ (u, v, _) =>
        if (!(boundary(u) && boundary(v))) seeds += e
      }
      if (seeds.nonEmpty) {
        val res = updPost(i).applyInputChanges(seeds)
        labPost(i).updateSubtrees(res.affected)
      }
    }), threads)
    mark(3)

    // U-Stage 5: cross-boundary index update.
    if (stages == 5) {
      cross.update(partScTouched, changedOvLabels, threads)
      mark(4)
    }

    StageTimes(times)
  }

  /** Total index entries across the built components (|L| metric). */
  def indexEntries: Long = {
    var s = tdOv.slotCount + tdPart.map(_.slotCount).sum
    if (labels) {
      s += labOv.labelEntries
      for (i <- 0 until k)
        s += labPart(i).labelEntries + labPost(i).labelEntries + tdPost(i).slotCount
    }
    if (stages == 5) s + cross.labelEntries else s
  }
}
