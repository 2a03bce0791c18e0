package repro.baseline

import repro.graph.RoadGraph
import repro.core.pmhl.PMHL
import repro.core.postmhl.PostMHL

/** PMHL (§V) as a Solution: the first `stages` of its five query stages,
  * each released when the U-stage before it completes.
  */
class PMHLSolution(g0: RoadGraph, k: Int, threads: Int, stages: Int = 5) extends Solution {
  val graph: RoadGraph = g0.copyWeights()
  val name: String = "PMHL"
  val index = new PMHL(graph, k, threads, stages)
  val buildSeconds: Double = {
    val t0 = System.nanoTime()
    index.build()
    (System.nanoTime() - t0) / 1e9
  }
  def indexEntries: Long = index.indexEntries
  private val queries = IndexedSeq[(String, (Int, Int) => Int)](
    "BiDij" -> index.queryBiDijkstra, "PCH" -> index.queryPCH,
    "NoB-H2H" -> index.queryNoBoundary, "PostB-H2H" -> index.queryPostBoundary,
    "CrossB-H2H" -> index.queryCrossBoundary).take(stages)
  def applyBatch(batch: Seq[(Int, Int, Int)]): IndexedSeq[QueryStage] = {
    val st = index.applyUpdateBatch(batch)
    queries.zip(st.t).map { case ((label, q), t) => QueryStage(t, label, q) }
  }
  def bestQuery(s: Int, t: Int): Int = stages match {
    case 2 => index.queryPCH(s, t)
    case 4 => index.queryPostBoundary(s, t)
    case _ => index.queryCrossBoundary(s, t)
  }
}

/** N-CH-P [35]: the update-oriented no-boundary PSP index — PMHL stopped
  * after U-Stage 2: partition and overlay shortcut arrays queried by PCH,
  * no distance labels.
  */
final class NCHPSolution(g0: RoadGraph, k: Int, threads: Int)
    extends PMHLSolution(g0, k, threads, stages = 2) { override val name = "N-CH-P" }

/** P-TD-P [35]: the query-oriented post-boundary PSP index — PMHL stopped
  * after U-Stage 4, without the cross-boundary strategy (its best query
  * concatenates partition and overlay labels for cross-partition pairs).
  */
final class PTDPSolution(g0: RoadGraph, k: Int, threads: Int)
    extends PMHLSolution(g0, k, threads, stages = 4) { override val name = "P-TD-P" }

/** PostMHL (§VI) as a Solution: four query stages (Figure 9). */
final class PostMHLSolution(g0: RoadGraph, tau: Int, ke: Int, threads: Int) extends Solution {
  val graph: RoadGraph = g0.copyWeights()
  val name = "PostMHL"
  private val t0 = System.nanoTime()
  val index = new PostMHL(graph, tau, ke, 0.1, 2.0, threads)
  val buildSeconds: Double = (System.nanoTime() - t0) / 1e9
  def indexEntries: Long = index.indexEntries
  def applyBatch(batch: Seq[(Int, Int, Int)]): IndexedSeq[QueryStage] = {
    val st = index.applyUpdateBatch(batch)
    IndexedSeq(
      QueryStage(st.t(0), "BiDij", index.queryBiDijkstra),
      QueryStage(st.t(1), "PCH", index.queryPCH),
      QueryStage(st.t(3), "PostB-H2H", index.queryPost),
      QueryStage(st.t(4), "CrossB-H2H", index.queryFull),
    )
  }
  def bestQuery(s: Int, t: Int): Int = index.queryFull(s, t)
}
