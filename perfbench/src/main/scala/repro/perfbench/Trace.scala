package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed interval around a call into a layer. `parent` is the id of the
  * enclosing span (-1 at top level); `batch` the update batch it belongs to
  * (-1 outside the batch loop). Spans marked `derived` were not timed by the
  * benchmark itself but placed from durations the program returned (the
  * cumulative `StageTimes` of a batch, the step times of a build).
  */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long,
                      parent: Int, batch: Int, derived: Boolean) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the single benchmark thread; spans are
  * written out only when the run ends.
  */
final class Tracer {
  private val spans = ArrayBuffer[Span]()
  private var open: List[Int] = Nil

  def span[A](name: String, batch: Int = -1)(body: => A): A = {
    val id = spans.length
    spans += null // reserve the id so children get larger ones
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      spans(id) = Span(id, name, t0, t1, parent, batch, derived = false)
    }
  }

  /** Record consecutive child spans of `parent` from cumulative end times
    * (seconds from the parent's start), e.g. a batch's U-stages.
    */
  def derivedChildren(parent: Span, names: Seq[String], cumulative: Seq[Double]): Unit = {
    var prev = 0.0
    names.zip(cumulative).foreach { case (name, t) =>
      spans += Span(spans.length, name, parent.startNs + (prev * 1e9).toLong,
        parent.startNs + (t * 1e9).toLong, parent.id, parent.batch, derived = true)
      prev = t
    }
  }

  /** The span most recently closed under `name`. */
  def last(name: String): Span = spans.reverseIterator.find(s => s != null && s.name == name).get

  def all: IndexedSeq[Span] = spans.toIndexedSeq
}

object Trace {

  /** Self time of every span: its duration minus the part of its interval
    * covered by its children (overlapping children are counted once).
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val kids = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.map { s =>
      val ivs = kids.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue; var curB = Long.MinValue
      ivs.foreach { case (a, b) =>
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Spans plus per-name totals of wall and self time, as JSON. */
  def toJson(spans: Seq[Span]): String = {
    val self = selfTimes(spans)
    val t0 = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    val items = spans.map { s =>
      Json.obj(Seq(
        "id" -> s.id.toString, "name" -> Json.str(s.name),
        "start_us" -> Json.num((s.startNs - t0) / 1e3), "end_us" -> Json.num((s.endNs - t0) / 1e3),
        "parent" -> s.parent.toString, "batch" -> s.batch.toString,
        "derived" -> s.derived.toString, "self_us" -> Json.num(self(s.id) / 1e3)))
    }
    val byName = spans.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      name -> Json.obj(Seq(
        "count" -> ss.length.toString,
        "wall_s" -> Json.num(ss.map(_.durNs).sum / 1e9),
        "self_s" -> Json.num(ss.map(s => self(s.id)).sum / 1e9)))
    }
    Json.obj(Seq("layers" -> Json.obj(byName), "spans" -> Json.arr(items)))
  }
}
