package repro.baseline

import repro.graph.RoadGraph
import repro.core.td.{MDE, TD}
import repro.core.h2h.{CHQuery, UpwardGraph}
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

/** DCH [32]: global CH index with shortcut-centric maintenance; CH query.
  * BiDijkstra serves queries while the shortcuts are being repaired.
  *
  * The three global baselines are PostMHL with no partitions (τ < 0, so
  * k = 0) and serial label passes: by Lemma 4 the CH update is the first
  * phase of the H2H update, and by Remark 2 PostMHL's labels are DH2H's.
  * DCH is that index stopped after U-stage 2.
  */
final class DCHSolution(g0: RoadGraph)
    extends PostMHLSolution(g0, tau = -1, ke = 1, threads = 1, "DCH", Seq(0 -> "BiDij", 1 -> "CH"))

/** DH2H [33]: global H2H with shortcut + label maintenance; BiDijkstra
  * covers the entire (long) maintenance window — the paper's setup for
  * index-based baselines.
  */
final class DH2HSolution(g0: RoadGraph)
    extends PostMHLSolution(g0, tau = -1, ke = 1, threads = 1, "DH2H", Seq(0 -> "BiDij", 4 -> "H2H"))

/** MHL (§V-A): the non-partitioned multi-stage index — DH2H extended with
  * the CH stage released between shortcut and label maintenance.
  */
final class MHLSolution(g0: RoadGraph)
    extends PostMHLSolution(g0, tau = -1, ke = 1, threads = 1, "MHL", Seq(0 -> "BiDij", 1 -> "CH", 4 -> "H2H"))

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
