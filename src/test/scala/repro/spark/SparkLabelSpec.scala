package repro.spark

import repro.{Oracle, SparkSpec}
import repro.graph.GridGen
import repro.core.sp.Dijkstra
import org.apache.spark.sql.functions._

/** Distributed dataflow path: per-partition label build via flatMapGroups,
  * L* assembly via Spark SQL, batch queries as 2-hop joins — all verified
  * against the DuckDB oracle and Dijkstra ground truth.
  */
class SparkLabelSpec extends SparkSpec {

  test("distributed L* labels answer all queries exactly (vs Dijkstra)") {
    val g = GridGen.grid(6, 18, seed = 201)
    val labels = DistributedLabels.buildLStar(spark, g, k = 4).cache()
    import spark.implicits._
    val rnd = new scala.util.Random(202)
    val qs = (0 until 60).map(i => QueryRow(i.toLong, rnd.nextInt(g.n), rnd.nextInt(g.n)))
    val ans = LabelQuery.answer(spark, qs.toDF(), labels)
      .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    for (q <- qs) {
      val truth = Dijkstra.query(g, q.s, q.t)
      assert(ans(q.qid) == truth, s"query ${q.qid} (${q.s},${q.t})")
    }
    labels.unpersist()
  }

  test("2-hop join query matches DuckDB oracle on the same label table") {
    val g = GridGen.grid(5, 12, seed = 203)
    val labels = DistributedLabels.buildLStar(spark, g, k = 4).cache()
    import spark.implicits._
    val rnd = new scala.util.Random(204)
    val qs = (0 until 40).map(i => QueryRow(i.toLong, rnd.nextInt(g.n), rnd.nextInt(g.n)))
    val queries = qs.toDF()
    val result = LabelQuery.answer(spark, queries, labels)
      .select(col("qid").cast("long") as "qid", col("dist").cast("long") as "dist")
    // DuckDB gets VARCHAR columns; cast inside the oracle SQL.
    val duckSql =
      """SELECT CAST(q.qid AS BIGINT) AS qid, MIN(CAST(ls.dist AS BIGINT) + CAST(lt.dist AS BIGINT)) AS dist
        |FROM queries q
        |JOIN labels ls ON q.s = ls.vertex
        |JOIN labels lt ON q.t = lt.vertex AND ls.hub = lt.hub
        |GROUP BY CAST(q.qid AS BIGINT)""".stripMargin
    Oracle.assertEquivalent(result, duckSql, "queries" -> queries, "labels" -> labels.toDF())
    labels.unpersist()
  }

  test("label table properties: self labels zero, hubs cover, dists positive") {
    val g = GridGen.grid(4, 10, seed = 205)
    val labels = DistributedLabels.buildLStar(spark, g, k = 2).cache()
    val self = labels.where(col("vertex") === col("hub")).collect()
    assert(self.length == g.n, "every vertex must carry its self label")
    assert(self.forall(_.getInt(2) == 0))
    val neg = labels.where(col("dist") < 0).count()
    assert(neg == 0)
    // every vertex appears
    assert(labels.select("vertex").distinct().count() == g.n)
    labels.unpersist()
  }
}
