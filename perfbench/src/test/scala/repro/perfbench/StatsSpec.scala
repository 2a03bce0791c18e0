package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("highest percentile keeps at least ten samples beyond it") {
    assert(Stats.highestPercentile(1000).contains(99.0))  // rank 990: 10 beyond
    assert(Stats.highestPercentile(999).contains(90.0))   // rank 990: 9 beyond
    assert(Stats.highestPercentile(10000).contains(99.9)) // rank 9990: 10 beyond
    assert(Stats.highestPercentile(200000).contains(99.99))
    assert(Stats.highestPercentile(20).contains(50.0))
    assert(Stats.highestPercentile(19).isEmpty)
  }

  test("nearest-rank percentile") {
    val xs = Array.tabulate(100)(i => (i + 1).toDouble)
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(xs, 99) == 99.0)
    assert(Stats.percentile(xs, 100) == 100.0)
    assert(Stats.percentile(Array(7.0), 99) == 7.0)
  }

  test("tick percentile interpolates within a tied tick") {
    // Ten samples: 1, 2, 2, 2, 2, 3, 3, 3, 4, 5 on a clock of tick 1.
    val xs = Array(1.0, 2, 2, 2, 2, 3, 3, 3, 4, 5)
    // Rank 5 falls in tick 2 = [1.5, 2.5), which holds ranks 2..5 of 10:
    // 1.5 + (5 - 1) / 4 = 2.5.
    assert(math.abs(Stats.tickPercentile(xs, 50, 1.0) - 2.5) < 1e-12)
    // Rank 9 lies in tick 4 = [3.5, 4.5) holding rank 9 alone: 3.5 + (9 - 8) / 1.
    assert(math.abs(Stats.tickPercentile(xs, 90, 1.0) - 4.5) < 1e-12)
  }

  test("interval latency on a hand-computed three-stage timeline") {
    // δt = 4 s; stages released at 1, 2, 3 s with mean service 0.4, 0.2, 0.1 s.
    // Waiting before the first release: ∫0^1 (1 - x) dx + 1·0.4 = 0.9;
    // then 0.4·1 + 0.2·1 + 0.1·1 = 0.7; (0.9 + 0.7) / 4 = 0.4.
    assert(math.abs(Stats.intervalLatency(Seq(1, 2, 3), Seq(0.4, 0.2, 0.1), 4) - 0.4) < 1e-12)
    // A slower second stage is not used: the first keeps serving 2..3 s.
    // 0.9 + 0.4 + 0.4 + 0.1 = 1.8; 1.8 / 4 = 0.45.
    assert(math.abs(Stats.intervalLatency(Seq(1, 2, 3), Seq(0.4, 0.5, 0.1), 4) - 0.45) < 1e-12)
    // A release after δt is never reached: 0.9 + 0.4 + 0.2·2 = 1.7 over δt = 4.
    assert(math.abs(Stats.intervalLatency(Seq(1, 2, 5), Seq(0.4, 0.2, 0.1), 4) - 0.425) < 1e-12)
    // Immediate release of one stage: its mean.
    assert(Stats.intervalLatency(Seq(0.0), Seq(0.3), 2) == 0.3)
  }

  test("span self time subtracts the union of its children") {
    def sp(id: Int, a: Long, b: Long, parent: Int) = Span(id, s"s$id", a, b, parent, -1, derived = false)
    val spans = Seq(sp(0, 0, 10, -1), sp(1, 1, 3, 0), sp(2, 2, 5, 0), sp(3, 7, 8, 0), sp(4, 2, 4, 2))
    val self = Trace.selfTimes(spans)
    assert(self(0) == 5) // 10 - |[1,5] ∪ [7,8]|
    assert(self(1) == 2)
    assert(self(2) == 1) // 3 - 2
    assert(self(3) == 1)
    assert(self(4) == 2)
  }

  test("traced spans nest and derived children tile their parent") {
    val tr = new Tracer
    tr.span("outer") { tr.span("inner")(()) }
    val outer = tr.last("outer")
    assert(tr.last("inner").parent == outer.id)
    tr.derivedChildren(outer, Seq("a", "b"), Seq(0.0, 0.0))
    assert(tr.all.count(_.parent == outer.id) == 3)
  }

  test("update stream: distinct edges, halved or doubled within [1, cap], seeded") {
    val g = repro.graph.GridGen.grid(6, 6, seed = 3)
    val a = new UpdateStream(g, 10, 150, 7)
    val b = new UpdateStream(g, 10, 150, 7)
    val weights = scala.collection.mutable.Map[(Int, Int), Int]()
    g.undirectedEdges.foreach { case (u, v, w) => weights((u, v)) = w }
    for (_ <- 1 to 30) {
      val batch = a.next()
      assert(batch == b.next())
      assert(batch.map(e => (e._1, e._2)).distinct.length == 10)
      batch.foreach { case (u, v, w) =>
        val old = weights((u, v))
        assert(w == math.max(1, old / 2) || w == math.min(150, old * 2))
        assert(w >= 1 && w <= 150)
        weights((u, v)) = w
      }
    }
    assert(new UpdateStream(g, 10, 150, 8).next() != new UpdateStream(g, 10, 150, 7).next())
  }
}
