package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.RoadGraph
import repro.partition.SpatialPartitioner
import repro.core.td.MDE
import repro.core.h2h.H2HIndex
import scala.collection.mutable

/** One edge of an extended partition shipped to executors: intra edges
  * plus the all-pair boundary clique, with boundary flags so the executor
  * can run the boundary-first MDE locally.
  */
final case class EdgeRow(part: Int, u: Int, v: Int, w: Int, uBound: Boolean, vBound: Boolean)

/** Flat 2-hop label entry (vertex, hub, dist). */
final case class LabelRow(vertex: Int, hub: Int, dist: Int)

/** A batched shortest-distance query. */
final case class QueryRow(qid: Long, s: Int, t: Int)

/** The distributed-dataflow reproduction path (DESIGN.md §6): partition
  * hub-label construction fans out over Spark tasks (`flatMapGroups`, one
  * group per partition), and the paper's §IV-A cross-boundary index `L*`
  * is assembled with Spark SQL joins:
  *
  *   L*(v,c) = min over boundary hubs b of L'ᵢ(v,b) + L̃(b,c)   (cross part)
  *   L*(v,c) = L'ᵢ(v,c) for in-partition hubs c                  (inherited)
  *   L*(b,·) = L̃(b,·) for boundary b                             (inherited)
  *
  * Correctness relies on the boundary-first property: the first boundary
  * vertex on any exiting shortest path is a hub of the source, so the
  * min-concatenation join covers all cross-partition pairs (Lemma 2).
  */
object DistributedLabels {

  /** Driver-side prep: partition the graph, build the overlay index, and
    * emit the extended-partition edge rows plus the overlay flat labels.
    */
  final case class Prep(pr: repro.partition.PartitionResult,
                        edgeRows: IndexedSeq[EdgeRow],
                        overlayLabels: IndexedSeq[LabelRow],
                        nVertices: Int)

  def prepare(g: RoadGraph, k: Int): Prep = {
    val pr = SpatialPartitioner.partition(g, k)
    val n = g.n
    val edges = SpatialPartitioner.splitEdges(g, pr)
    val tdOv = MDE.decompose(n, SpatialPartitioner.overlayEdges(pr, edges, threads = 1))
    val labOv = new H2HIndex(tdOv); labOv.relabel(tdOv.roots.filter(pr.boundary)); tdOv.buildLca()
    val ovLabels = (0 until n).filter(pr.boundary).flatMap { b =>
      val chain = tdOv.ancestorChain(b)
      chain.indices.map(j => LabelRow(b, chain(j), labOv.dis(b)(j)))
    }
    // Extended partition edges: intra + boundary clique from overlay queries.
    val rows = new mutable.ArrayBuffer[EdgeRow]()
    for (i <- 0 until k) {
      val bs = pr.boundaryOf(i); val ms = pr.members(i)
      edges.intra(i).foreach { case (lu, lv, w) =>
        val u = ms(lu); val v = ms(lv)
        rows += EdgeRow(i, u, v, w, pr.boundary(u), pr.boundary(v))
      }
      for (a <- bs.indices; b <- (a + 1) until bs.length) {
        val d = labOv.query(bs(a), bs(b))
        if (d < repro.core.td.TD.Inf) rows += EdgeRow(i, bs(a), bs(b), d, true, true)
      }
    }
    Prep(pr, rows.toIndexedSeq, ovLabels.toIndexedSeq, n)
  }

  /** Executor kernel: boundary-first MDE + H2H over one extended partition,
    * emitting flat labels of its non-boundary vertices. The group's vertices
    * are renumbered to local ids in ascending global id (so MDE breaks ties
    * as it would on global ids), and the labels are emitted in global ids.
    */
  def buildPartitionLabels(rows: Iterator[EdgeRow]): Iterator[LabelRow] = {
    val rs = rows.toArray
    if (rs.isEmpty) return Iterator.empty
    val ids = rs.flatMap(r => Array(r.u, r.v)).distinct.sorted
    def local(v: Int): Int = java.util.Arrays.binarySearch(ids, v)
    val forced = new Array[Boolean](ids.length)
    rs.foreach { r =>
      if (r.uBound) forced(local(r.u)) = true
      if (r.vBound) forced(local(r.v)) = true
    }
    val td = MDE.decompose(ids.length, rs.map(r => (local(r.u), local(r.v), r.w)), forcedLast = forced)
    val lab = new H2HIndex(td); lab.build()
    ids.indices.iterator.filter(!forced(_)).flatMap { l =>
      val chain = td.ancestorChain(l)
      chain.indices.map(j => LabelRow(ids(l), ids(chain(j)), lab.dis(l)(j)))
    }
  }

  /** Full distributed pipeline: returns the `L*` label DataFrame
    * (vertex, hub, dist) covering every vertex of the graph.
    */
  def buildLStar(spark: SparkSession, g: RoadGraph, k: Int): DataFrame = {
    import spark.implicits._
    val prep = prepare(g, k)
    val n = prep.nVertices
    val edgeDs: Dataset[EdgeRow] = spark.createDataset(prep.edgeRows)
    // Fan out: one Spark task per partition builds that partition's labels.
    val partLabels: Dataset[LabelRow] = edgeDs
      .groupByKey(_.part)
      .flatMapGroups((_: Int, rows: Iterator[EdgeRow]) => buildPartitionLabels(rows))
    val ovLabels = spark.createDataset(prep.overlayLabels)
    val boundarySet = (0 until n).filter(prep.pr.boundary).toSet
    val isBoundary = udf((v: Int) => boundarySet.contains(v))
    val inPart = partLabels.toDF().where(!isBoundary(col("hub")))
    val toBoundary = partLabels.toDF().where(isBoundary(col("hub")))
    // Cross part: concatenate over boundary hubs with the overlay labels.
    val crossPart = toBoundary.alias("p")
      .join(ovLabels.toDF().alias("o"), col("p.hub") === col("o.vertex"))
      .select(col("p.vertex") as "vertex", col("o.hub") as "hub",
              (col("p.dist") + col("o.dist")) as "dist")
    inPart.select("vertex", "hub", "dist")
      .unionAll(crossPart)
      .unionAll(ovLabels.toDF().select("vertex", "hub", "dist"))
      .groupBy("vertex", "hub").agg(min("dist") as "dist")
  }
}

/** Batch shortest-distance query answering as a 2-hop label join — the
  * canonical bulk hub-label lookup, verified against DuckDB by the Oracle.
  */
object LabelQuery {

  /** The join/aggregation, as SQL so the identical text runs on DuckDB. */
  val sql: String =
    """SELECT q.qid AS qid, MIN(ls.dist + lt.dist) AS dist
      |FROM queries q
      |JOIN labels ls ON q.s = ls.vertex
      |JOIN labels lt ON q.t = lt.vertex AND ls.hub = lt.hub
      |GROUP BY q.qid""".stripMargin

  /** Answer a DataFrame of (qid, s, t) over a (vertex, hub, dist) label
    * table; unreachable pairs produce no row (no common hub).
    */
  def answer(spark: SparkSession, queries: DataFrame, labels: DataFrame): DataFrame = {
    queries.createOrReplaceTempView("queries")
    labels.createOrReplaceTempView("labels")
    spark.sql(sql)
  }
}
