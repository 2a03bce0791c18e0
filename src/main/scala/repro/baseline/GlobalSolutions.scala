package repro.baseline

import repro.graph.RoadGraph
import repro.core.td.{MDE, ShortcutUpdater, TD}
import repro.core.h2h.{CHQuery, H2HIndex, UpwardGraph}
import repro.core.sp.BiDijkstra

/** Index-free baseline: BiDijkstra [11]. Updates are just edge refreshes. */
final class BiDijkstraSolution(g0: RoadGraph) extends Solution {
  val graph: RoadGraph = g0.copyWeights()
  val name = "BiDijkstra"
  val buildSeconds = 0.0
  val indexEntries = 0L
  def applyBatch(batch: Seq[(Int, Int, Int)]): IndexedSeq[QueryStage] = {
    val t0 = System.nanoTime()
    batch.foreach { case (u, v, w) => graph.setWeight(u, v, w) }
    IndexedSeq(QueryStage((System.nanoTime() - t0) / 1e9, "BiDij", bestQuery))
  }
  def bestQuery(s: Int, t: Int): Int = BiDijkstra.query(graph, s, t)
}

/** Global (non-partitioned) MHL engine (§V-A): MDE shortcut arrays kept by
  * `ShortcutUpdater`, then optionally H2H labels on the same tree. Query
  * stages: BiDijkstra while shortcuts are repaired, then CH over the
  * shortcut arrays (if `ch`), then H2H once labels are repaired (if
  * `labels`). By Lemma 4 the CH update is the first phase of the H2H
  * update, so the global baselines are this engine with stages removed.
  */
class GlobalMHLSolution(g0: RoadGraph, val name: String, ch: Boolean, labels: Boolean)
    extends Solution {
  val graph: RoadGraph = g0.copyWeights()
  private val t0 = System.nanoTime()
  private val td = MDE.decompose(graph.n, graph.undirectedEdges)
  private val upd = new ShortcutUpdater(td)
  private val lab = if (labels) { val l = new H2HIndex(td); l.build(); td.buildLca(); l } else null
  private val chq = if (ch) new CHQuery(UpwardGraph.fromTD(td)) else null
  val buildSeconds: Double = (System.nanoTime() - t0) / 1e9
  def indexEntries: Long = td.slotCount + (if (labels) lab.labelEntries else 0L)
  def applyBatch(batch: Seq[(Int, Int, Int)]): IndexedSeq[QueryStage] = {
    val t0 = System.nanoTime()
    def elapsed: Double = (System.nanoTime() - t0) / 1e9
    batch.foreach { case (u, v, w) => graph.setWeight(u, v, w) }
    val stages = IndexedSeq.newBuilder[QueryStage]
    stages += QueryStage(elapsed, "BiDij", (s, t) => BiDijkstra.query(graph, s, t))
    val res = upd.applyInputChanges(batch)
    if (ch) stages += QueryStage(elapsed, "CH", (s, t) => chq.query(s, t))
    if (labels) {
      lab.updateSubtrees(res.affected)
      stages += QueryStage(elapsed, "H2H", (s, t) => lab.query(s, t))
    }
    stages.result()
  }
  def bestQuery(s: Int, t: Int): Int = if (labels) lab.query(s, t) else chq.query(s, t)
}

/** DCH [32]: global CH index with shortcut-centric maintenance; CH query.
  * BiDijkstra serves queries while the shortcuts are being repaired.
  */
final class DCHSolution(g0: RoadGraph) extends GlobalMHLSolution(g0, "DCH", ch = true, labels = false)

/** DH2H [33]: global H2H with shortcut + label maintenance; BiDijkstra
  * covers the entire (long) maintenance window — the paper's setup for
  * index-based baselines.
  */
final class DH2HSolution(g0: RoadGraph) extends GlobalMHLSolution(g0, "DH2H", ch = false, labels = true)

/** MHL (§V-A): the non-partitioned multi-stage index — DH2H extended with
  * the CH stage released between shortcut and label maintenance.
  */
final class MHLSolution(g0: RoadGraph) extends GlobalMHLSolution(g0, "MHL", ch = true, labels = true)

/** TOAIN [37] adapted to dynamic networks exactly as the paper does: a
  * static CH(SCOB)-style index whose shortcuts are *refreshed* (rebuilt)
  * when a batch arrives — static-CH query speed, rebuild-priced updates
  * (see DESIGN.md substitution table).
  */
final class ToainSolution(g0: RoadGraph) extends Solution {
  val graph: RoadGraph = g0.copyWeights()
  val name = "TOAIN"
  private var td: TD = _
  private var ch: CHQuery = _
  val buildSeconds: Double = {
    val t0 = System.nanoTime()
    rebuild()
    (System.nanoTime() - t0) / 1e9
  }
  private def rebuild(): Unit = {
    td = MDE.decompose(graph.n, graph.undirectedEdges)
    ch = new CHQuery(UpwardGraph.fromTD(td))
  }
  def indexEntries: Long = td.slotCount
  def applyBatch(batch: Seq[(Int, Int, Int)]): IndexedSeq[QueryStage] = {
    val t0 = System.nanoTime()
    batch.foreach { case (u, v, w) => graph.setWeight(u, v, w) }
    val t1 = (System.nanoTime() - t0) / 1e9
    rebuild()
    val t2 = (System.nanoTime() - t0) / 1e9
    IndexedSeq(
      QueryStage(t1, "BiDij", (s, t) => BiDijkstra.query(graph, s, t)),
      QueryStage(t2, "CH", bestQuery),
    )
  }
  def bestQuery(s: Int, t: Int): Int = ch.query(s, t)
}
