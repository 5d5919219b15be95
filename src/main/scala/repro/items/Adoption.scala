package repro.items

/** The EPIC node-level adoption rule (Fig. 2, step 3, and §4.1).
  *
  * Given the utility table of the current possible world, a desire set `R`
  * and the previously adopted set `A ⊆ R`, the node adopts
  * `T* = argmax { U(T) | A ⊆ T ⊆ R, U(T) >= 0 }`, breaking ties in favour
  * of larger cardinality. By Lemma 2 the union of tied maxima is itself a
  * maximum when `U` is supermodular, which makes it the unique maximal
  * optimum; the rule returns that union whenever it is an argmax, and a
  * largest-cardinality argmax otherwise (the learned PS4 valuation is not
  * supermodular, DESIGN.md §5.2).
  */
object Adoption {

  private val Tol = 1e-9

  /** Adopt from desire set `desire` given previous adoption `prev`.
    *
    * `prev` is assumed to satisfy the model invariant `U(prev) >= 0` (it
    * was itself adopted earlier; the empty set has `U = 0`). Returns the
    * new adoption mask (always a superset of `prev`).
    */
  def adopt(util: Array[Double], desire: Int, prev: Int): Int = {
    require((prev & ~desire) == 0, "previous adoption must be within the desire set")
    var bestU = util(prev)
    var union = prev // union of the tied maxima
    var largest = prev // a largest-cardinality maximum
    // Enumerate T = prev | sub for every submask `sub` of desire \ prev.
    val free = desire & ~prev
    var sub = free
    while (sub != 0) {
      val t = prev | sub
      val u = util(t)
      if (u > bestU + Tol) { bestU = u; union = t; largest = t }
      else if (u >= bestU - Tol) {
        union |= t
        if (Integer.bitCount(t) > Integer.bitCount(largest)) largest = t
      }
      sub = (sub - 1) & free
    }
    if (util(union) >= bestU - Tol) union else largest
  }

  /** A [[Memo]] runs [[adopt]] directly when `desire & ~prev` has fewer
    * items than this, since a probe costs more than such a scan. Set by
    * measurement on Fig 5's welfare cell, where 4 and 8 were within noise.
    */
  private[items] val MemoCut = 6

  /** Slots a [[Memo]] starts with; it doubles them at half load. */
  private[items] val MemoSlots = 16

  private val Empty = -1L // never a key: desire = prev = -1 has no free item

  /** [[adopt]] over one utility table, memoized by `(desire, prev)`.
    *
    * In one possible world every node reads the same table, so the rule is
    * a function of `(desire, prev)`; seeds sharing greedyWM's nested
    * bundles and the nodes they reach repeat the same large scans. Calls
    * with at least [[MemoCut]] free items are kept in an open-addressing
    * table of primitive keys and results; every miss calls [[adopt]], so
    * each result, and each rejected argument, is the plain rule's.
    */
  final class Memo(util: Array[Double]) {
    private var keys = Array.fill(MemoSlots)(Empty)
    private var vals = new Array[Int](MemoSlots)
    private var size = 0

    def adopt(desire: Int, prev: Int): Int =
      if (Integer.bitCount(desire & ~prev) < MemoCut) Adoption.adopt(util, desire, prev)
      else {
        val key = (desire.toLong << 32) | (prev & 0xFFFFFFFFL)
        val i = find(keys, key)
        if (keys(i) == key) vals(i)
        else {
          val a = Adoption.adopt(util, desire, prev)
          keys(i) = key; vals(i) = a; size += 1
          if (2 * size > keys.length) grow()
          a
        }
      }

    /** The slot holding `key`, or the empty slot where it belongs. */
    private def find(ks: Array[Long], key: Long): Int = {
      val h = key * 0x9E3779B97F4A7C15L
      var i = (h ^ (h >>> 32)).toInt & (ks.length - 1)
      while (ks(i) != Empty && ks(i) != key) i = (i + 1) & (ks.length - 1)
      i
    }

    private def grow(): Unit = {
      val ks = Array.fill(2 * keys.length)(Empty)
      val vs = new Array[Int](ks.length)
      var j = 0
      while (j < keys.length) {
        if (keys(j) != Empty) { val i = find(ks, keys(j)); ks(i) = keys(j); vs(i) = vals(j) }
        j += 1
      }
      keys = ks; vals = vs
    }
  }
}
