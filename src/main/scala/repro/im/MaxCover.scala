package repro.im

import repro.exec.SeededBatch

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

  /** The selection below over the RR sets `rr`, whose members lie in
    * `[0, n)`, held in one block.
    */
  def nodeSelection(rr: collection.IndexedSeq[Array[Int]], k: Int, n: Int,
                    forbidden: Set[Int] = Set.empty): CoverResult =
    nodeSelection(RRStore.of(rr, n), k, forbidden)

  /** Select up to `k` seeds greedily over the sets of `store`: each pick is
    * the selectable node covering the most uncovered RR sets, ties to the
    * smaller id.
    *
    * Candidates sit in a max-heap keyed by (gain, -id) whose keys may be
    * stale. A gain only ever decreases, so a top whose key is its current
    * gain is the scan's argmax; a stale top is re-keyed and sifted down.
    * Gains start from the store's node counts, and a pick covers its sets
    * block by block. A pick's outcome does not depend on the order in which
    * its sets are covered, so neither does the selection on the blocks.
    *
    * @param forbidden nodes that may appear in RR sets but must never be
    *                  selected (bundle-disj "fresh seeds" support); ids
    *                  outside `[0, n)` are ignored
    */
  def nodeSelection(store: RRStore, k: Int, forbidden: Set[Int]): CoverResult = {
    val blocks = store.blocks
    val n = store.n
    val gain = store.count.clone()
    forbidden.foreach(f => if (f >= 0 && f < n) gain(f) = -1)

    val heap = new GainHeap(gain)

    val coveredSet = new Array[Boolean](store.size)
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
        var b = 0
        while (b < blocks.length) {
          val blk = blocks(b)
          var e = blk.idxOff(best)
          val end = blk.idxOff(best + 1)
          while (e < end) {
            val s = blk.idx(e)
            if (!coveredSet(blk.base + s)) {
              coveredSet(blk.base + s) = true
              coveredCount += 1
              var j = blk.off(s)
              val until = blk.off(s + 1)
              while (j < until) { val w = blk.members(j); if (gain(w) > 0) gain(w) -= 1; j += 1 }
            }
            e += 1
          }
          b += 1
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

  /** The prefix coverage below of `seeds` over the RR sets `rr`, whose
    * members lie in `[0, n)`, held in one block.
    */
  def prefixCoverage(rr: collection.IndexedSeq[Array[Int]], seeds: Array[Int], n: Int): Array[Int] =
    prefixCoverage(RRStore.of(rr, n), seeds)

  /** Entry `j` is the number of sets of `store` hit by the first `j+1`
    * seeds, from one scan: a set counts from the smallest pick rank among
    * its members. The blocks are scanned in parallel on the store's pool.
    * Ids outside `[0, n)` hit nothing.
    */
  def prefixCoverage(store: RRStore, seeds: Array[Int]): Array[Int] = {
    val blocks = store.blocks
    val n = store.n
    val k = seeds.length
    // rank(u) = u's first pick, or k for a node no seed names
    val rank = new Array[Int](n)
    java.util.Arrays.fill(rank, k)
    var j = k - 1
    while (j >= 0) { val u = seeds(j); if (u >= 0 && u < n) rank(u) = j; j -= 1 }
    // firstHit(b)(j) = sets of block b first hit by seed j; (b)(k) = sets no seed hits
    val firstHit = Array.ofDim[Int](blocks.length, k + 1)
    SeededBatch.forEach(store.parallelism, blocks.length) { b =>
      val blk = blocks(b)
      val hits = firstHit(b)
      var s = 0
      while (s < blk.length) {
        var first = k
        var e = blk.off(s)
        val until = blk.off(s + 1)
        while (e < until) { val r = rank(blk.members(e)); if (r < first) first = r; e += 1 }
        hits(first) += 1
        s += 1
      }
    }
    val prefix = new Array[Int](k)
    var hit = 0
    j = 0
    while (j < k) { firstHit.foreach(h => hit += h(j)); prefix(j) = hit; j += 1 }
    prefix
  }
}
