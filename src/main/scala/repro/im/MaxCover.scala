package repro.im

/** Greedy max-k-cover over a collection of RR sets — the `NodeSelection`
  * procedure of IMM/PRIMM. Deterministic: ties broken toward the smallest
  * node id, so repeated calls over the same RR collection agree (which the
  * prefix-reuse in PRIMM relies on).
  */
object MaxCover {

  /** @param seeds        selected nodes, in pick order
    * @param coveredAfter `coveredAfter(j)` = number of RR sets covered by
    *                     the first `j+1` seeds (per-prefix coverage)
    */
  final case class CoverResult(seeds: Array[Int], coveredAfter: Array[Int]) {
    def covered(prefix: Int): Int =
      if (prefix <= 0) 0 else coveredAfter(math.min(prefix, seeds.length) - 1)
  }

  /** Select up to `k` seeds greedily: each pick is the selectable node
    * covering the most uncovered RR sets, ties to the smaller id.
    *
    * Candidates sit in a max-heap keyed by (gain, -id) whose keys may be
    * stale. A gain only ever decreases, so a top whose key is its current
    * gain is the scan's argmax; a stale top is re-keyed and sifted down.
    *
    * @param forbidden nodes that may appear in RR sets but must never be
    *                  selected (bundle-disj "fresh seeds" support); ids
    *                  outside `[0, n)` are ignored
    */
  def nodeSelection(rr: collection.IndexedSeq[Array[Int]], k: Int, n: Int,
                    forbidden: Set[Int] = Set.empty): CoverResult = {
    // inverted index: node -> ids of RR sets containing it; gain = count
    val idxOff = new Array[Int](n + 1)
    var s = 0
    while (s < rr.length) {
      val set = rr(s)
      var j = 0
      while (j < set.length) { idxOff(set(j) + 1) += 1; j += 1 }
      s += 1
    }
    val gain = new Array[Int](n)
    var u = 0
    while (u < n) { gain(u) = idxOff(u + 1); idxOff(u + 1) += idxOff(u); u += 1 }
    val idx = new Array[Int](idxOff(n))
    val cur = java.util.Arrays.copyOf(idxOff, n)
    s = 0
    while (s < rr.length) {
      val set = rr(s)
      var j = 0
      while (j < set.length) { val v = set(j); idx(cur(v)) = s; cur(v) += 1; j += 1 }
      s += 1
    }
    forbidden.foreach(f => if (f >= 0 && f < n) gain(f) = -1)

    val heap = new GainHeap(gain)

    val coveredSet = new Array[Boolean](rr.length)
    val seeds = new scala.collection.mutable.ArrayBuilder.ofInt
    val coveredAfter = new scala.collection.mutable.ArrayBuilder.ofInt
    var coveredCount = 0
    var pick = 0
    while (pick < k && heap.nonEmpty) {
      val best = heap.topNode
      if (heap.topGain != gain(best)) heap.rekeyTop(gain(best))
      else {
        heap.pop()
        seeds += best
        // cover best's RR sets and decrement other members' gains
        var e = idxOff(best)
        val end = idxOff(best + 1)
        while (e < end) {
          val sid = idx(e)
          if (!coveredSet(sid)) {
            coveredSet(sid) = true
            coveredCount += 1
            val set = rr(sid)
            var j = 0
            while (j < set.length) { val w = set(j); if (gain(w) > 0) gain(w) -= 1; j += 1 }
          }
          e += 1
        }
        gain(best) = -1
        coveredAfter += coveredCount
        pick += 1
      }
    }
    CoverResult(seeds.result(), coveredAfter.result())
  }

  /** Binary max-heap of (gain, node) packed into longs: gain in the high
    * word, the node's complement in the low word, so larger gains and then
    * smaller ids come first. Holds every node whose initial gain is >= 0.
    */
  private final class GainHeap(initial: Array[Int]) {
    private def key(gain: Int, node: Int): Long = (gain.toLong << 32) | (~node & 0xFFFFFFFFL)
    private val keys = new Array[Long](initial.length)
    private var size = 0
    initial.indices.foreach(u => if (initial(u) >= 0) { keys(size) = key(initial(u), u); size += 1 })
    (size / 2 - 1 to 0 by -1).foreach(siftDown)

    def nonEmpty: Boolean = size > 0
    def topGain: Int = (keys(0) >>> 32).toInt
    def topNode: Int = ~keys(0).toInt
    def rekeyTop(gain: Int): Unit = { keys(0) = key(gain, topNode); siftDown(0) }
    def pop(): Unit = { size -= 1; keys(0) = keys(size); siftDown(0) }

    private def siftDown(from: Int): Unit = {
      val x = keys(from)
      var i = from
      var done = false
      while (!done) {
        var c = 2 * i + 1
        if (c >= size) done = true
        else {
          if (c + 1 < size && keys(c + 1) > keys(c)) c += 1
          if (keys(c) <= x) done = true
          else { keys(i) = keys(c); i = c }
        }
      }
      keys(i) = x
    }
  }

  /** Entry `j` is the number of RR sets hit by the first `j+1` seeds, from
    * one scan: a set counts from the smallest pick rank among its members.
    * Ids outside `[0, n)` hit nothing; members of `rr` lie in `[0, n)`.
    */
  def prefixCoverage(rr: collection.IndexedSeq[Array[Int]], seeds: Array[Int], n: Int): Array[Int] = {
    val k = seeds.length
    // rank(u) = u's first pick, or k for a node no seed names
    val rank = new Array[Int](n)
    java.util.Arrays.fill(rank, k)
    var j = k - 1
    while (j >= 0) { val u = seeds(j); if (u >= 0 && u < n) rank(u) = j; j -= 1 }
    // firstHit(j) = sets first hit by seed j; firstHit(k) = sets no seed hits
    val firstHit = new Array[Int](k + 1)
    var s = 0
    while (s < rr.length) {
      val set = rr(s)
      var first = k
      var i = 0
      while (i < set.length) { val r = rank(set(i)); if (r < first) first = r; i += 1 }
      firstHit(first) += 1
      s += 1
    }
    j = 1
    while (j < k) { firstHit(j) += firstHit(j - 1); j += 1 }
    java.util.Arrays.copyOf(firstHit, k)
  }
}
