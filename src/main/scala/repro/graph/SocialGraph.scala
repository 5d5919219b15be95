package repro.graph

/** Compact immutable social network used by the diffusion and IM engines.
  *
  * The graph is stored twice in CSR form: forward (out-edges, used by the
  * diffusion simulators) and reverse (in-edges, used by RR-set sampling).
  * Influence probabilities follow the weighted-cascade convention of the
  * paper (§6.1.3): `p(u,v) = 1 / d_in(v)`, held once per node in `wcProb`,
  * unless explicit probabilities are supplied, which are held per arc in
  * `fwdProb` and `revProb`. Read them through [[fwdP]] and [[revP]].
  *
  * The whole structure is a value object of primitive arrays so it can be
  * broadcast to Spark executors on a cluster master (a local master's
  * sampling threads share it by reference): a few MB for the small
  * stand-ins, about 29 MB for the Twitter stand-in (50K nodes, 3.5M edges).
  *
  * @param name       human-readable dataset name
  * @param n          number of nodes; node ids are `0 until n`
  * @param fwdOff     forward CSR offsets, length `n+1`
  * @param fwdDst     forward CSR targets, length `m`
  * @param fwdProb    explicit probability of edge `u -> fwdDst(e)` (indexed like `fwdDst`); empty under weighted cascade
  * @param revOff     reverse CSR offsets, length `n+1`
  * @param revSrc     reverse CSR sources, length `m`
  * @param revProb    explicit probability of edge `revSrc(e) -> v` (indexed like `revSrc`); empty under weighted cascade
  * @param wcProb     weighted-cascade `1 / d_in(v)` per node, length `n`; empty when probabilities are explicit
  * @param wcSkip     `1 / ln(1 - wcProb(v))` per node where `wcProb(v) < 1`, else 0: the scale of the IC and
  *                   Com-IC reverse searches' geometric skips (with one `log1p` per expanded node instead, one thread
  *                   drew Douban-Movie RR sets in 0.93 us each, against 0.63 us); empty when
  *                   probabilities are explicit
  * @param undirected true when the dataset is undirected (edges stored both ways)
  */
final case class SocialGraph(
    name: String,
    n: Int,
    fwdOff: Array[Int],
    fwdDst: Array[Int],
    fwdProb: Array[Double],
    revOff: Array[Int],
    revSrc: Array[Int],
    revProb: Array[Double],
    wcProb: Array[Double],
    wcSkip: Array[Double],
    undirected: Boolean,
) {

  /** Number of directed edges stored. */
  def m: Long = fwdDst.length.toLong

  /** Probability of forward arc `e`, the edge `u -> fwdDst(e)`. */
  def fwdP(e: Int): Double = if (wcProb.length > 0) wcProb(fwdDst(e)) else fwdProb(e)

  /** Probability of reverse arc `e` of node `v`, the edge `revSrc(e) -> v`. */
  def revP(e: Int, v: Int): Double = if (wcProb.length > 0) wcProb(v) else revProb(e)

  /** Average degree as reported in Table 2: stored arcs per node, so an
    * undirected edge (stored both ways) adds to both endpoints' degrees.
    */
  def avgDegree: Double = m.toDouble / n
}

object SocialGraph {

  /** The one CSR builder: arc `i` is `src(i) -> dst(i)` with probability
    * `prob(i)`, which must lie in `[0, 1]`, or the weighted-cascade
    * `1 / d_in(dst(i))` when `prob` is `None`. Each arc is checked to lie in
    * `[0, n)` once, and each node's arcs keep their input order in both CSRs.
    *
    * @param undirected label only: callers building undirected networks
    *                   pass both arc directions themselves.
    */
  def fromArcs(name: String, n: Int, src: Array[Int], dst: Array[Int],
               prob: Option[Array[Double]], undirected: Boolean): SocialGraph = {
    val m = src.length
    require(dst.length == m && prob.forall(_.length == m), "src, dst and prob must have one entry per arc")
    val fwdOff = new Array[Int](n + 1)
    val revOff = new Array[Int](n + 1)
    var e = 0
    while (e < m) {
      val u = src(e); val v = dst(e)
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) outside [0,$n)")
      fwdOff(u + 1) += 1; revOff(v + 1) += 1
      e += 1
    }
    var i = 0
    while (i < n) { fwdOff(i + 1) += fwdOff(i); revOff(i + 1) += revOff(i); i += 1 }
    val probs = prob.orNull
    val fwdDst = new Array[Int](m); val revSrc = new Array[Int](m)
    val fwdProb, revProb = if (probs == null) Array.emptyDoubleArray else new Array[Double](m)
    val fCur = java.util.Arrays.copyOf(fwdOff, n)
    val rCur = java.util.Arrays.copyOf(revOff, n)
    e = 0
    while (e < m) {
      val u = src(e); val v = dst(e)
      if (probs != null) {
        val p = probs(e)
        require(p >= 0.0 && p <= 1.0, s"edge ($u,$v) has probability $p outside [0,1]")
        fwdProb(fCur(u)) = p; revProb(rCur(v)) = p
      }
      fwdDst(fCur(u)) = v; fCur(u) += 1
      revSrc(rCur(v)) = u; rCur(v) += 1
      e += 1
    }
    val wcProb =
      if (probs != null) Array.emptyDoubleArray else Array.tabulate(n)(v => 1.0 / (revOff(v + 1) - revOff(v)))
    val wcSkip = wcProb.map(p => if (p < 1.0) 1.0 / math.log1p(-p) else 0.0)
    SocialGraph(name, n, fwdOff, fwdDst, fwdProb, revOff, revSrc, revProb, wcProb, wcSkip, undirected)
  }
}
