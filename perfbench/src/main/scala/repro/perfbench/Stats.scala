package repro.perfbench

/** The benchmark's own calculations: percentiles, the interval latency of
  * a stage timeline, and a minimal JSON writer (the build has no JSON
  * dependency).
  */
object Stats {

  /** Nearest-rank position (1-based) of percentile `p` in `n` samples. */
  private def rank(n: Int, p: Double): Int =
    (BigDecimal(p) * n / 100).setScale(0, BigDecimal.RoundingMode.CEILING).toInt.max(1)

  /** Nearest-rank percentile `p` (0 < p <= 100) of an ascending sample. */
  def percentile(sorted: Array[Double], p: Double): Double = {
    require(sorted.nonEmpty, "percentile of an empty sample")
    sorted(math.min(sorted.length, rank(sorted.length, p)) - 1)
  }

  /** Percentile `p` of an ascending sample whose values are whole ticks
    * of a clock (`tick` apart): interpolated within the tick holding rank
    * p·n, as for grouped data, so the estimate is not itself stuck to the
    * clock's grid when many samples tie.
    */
  def tickPercentile(sorted: Array[Double], p: Double, tick: Double): Double = {
    val v = percentile(sorted, p)
    def firstAtLeast(x: Double): Int = {
      var lo = 0; var hi = sorted.length
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (sorted(mid) < x) lo = mid + 1 else hi = mid }
      lo
    }
    val below = firstAtLeast(v - tick / 2)
    val inTick = firstAtLeast(v + tick / 2) - below
    v - tick / 2 + tick * (p / 100 * sorted.length - below) / inTick
  }

  def median(xs: Iterable[Double]): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "median of an empty sample")
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Percentiles a tail latency may be reported at, lowest first. */
  val ladder: Seq[Double] = Seq(50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

  /** Number of samples ranked strictly above percentile `p` of `n`. */
  private def beyond(n: Int, p: Double): Int = n - math.min(n, rank(n, p))

  /** Highest ladder percentile that leaves at least `minBeyond` of `n`
    * samples above it; None if even the median does not.
    */
  def highestPercentile(n: Int, minBeyond: Int = 10): Option[Double] =
    ladder.filter(p => beyond(n, p) >= minBeyond).lastOption

  /** Time-average over one update interval `deltaT` of the latency a query
    * sees: before the first stage is released it waits for it and is then
    * served by it; afterwards it is served by the fastest stage released so
    * far. `releases` are cumulative seconds from batch arrival in release
    * order, `means` the stages' mean service times in seconds.
    */
  def intervalLatency(releases: Seq[Double], means: Seq[Double], deltaT: Double): Double = {
    require(releases.nonEmpty && releases.length == means.length && deltaT > 0)
    require(releases.zip(releases.tail).forall { case (a, b) => a <= b },
      "stage releases must be non-decreasing")
    def clip(x: Double) = math.min(math.max(x, 0.0), deltaT)
    val r0 = clip(releases.head)
    var acc = r0 * r0 / 2 + r0 * means.head
    var fastest = Double.PositiveInfinity
    for (j <- releases.indices) {
      fastest = math.min(fastest, means(j))
      val end = if (j + 1 < releases.length) clip(releases(j + 1)) else deltaT
      val start = clip(releases(j))
      if (end > start) acc += fastest * (end - start)
    }
    acc / deltaT
  }
}

/** Hand-written JSON values (numbers keep every digit of the measurement). */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite number $x")
    x.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
