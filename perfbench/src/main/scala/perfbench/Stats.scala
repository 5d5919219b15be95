package perfbench

object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** The highest whole percentile that has at least ten samples beyond it,
    * by nearest rank, with its value. With ten samples or fewer no
    * percentile has ten beyond it, and the maximum (p100) is reported.
    */
  def tail(xs: Seq[Double]): (Int, Double) = {
    val s = xs.sorted
    val n = s.length
    if (n <= 10) (100, s.last)
    else {
      val p = 100 * (n - 10) / n
      (p, s(math.max(0, math.ceil(p * n / 100.0).toInt - 1)))
    }
  }

  /** Standard error of the mean. */
  def stderr(xs: Array[Double]): Double = {
    val n = xs.length
    if (n < 2) 0.0
    else {
      val mean = xs.sum / n
      math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / (n - 1) / n)
    }
  }
}
