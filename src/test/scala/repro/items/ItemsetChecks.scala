package repro.items

/** Itemset helpers that only tests use. */
object ItemsetChecks {

  /** Format a mask as `{i1,i3}` (1-based, paper style). */
  def show(mask: Int): String =
    Itemsets.items(mask).map(i => s"i${i + 1}").mkString("{", ",", "}")

  /** True iff `mask` is a local maximum of `util` (its utility is the max
    * over all its subsets) — the invariant of Lemma 3.
    */
  def isLocalMaximum(util: Array[Double], mask: Int): Boolean = {
    val u = util(mask)
    var sub = mask
    var ok = true
    while (sub != 0 && ok) {
      sub = (sub - 1) & mask
      if (util(sub) > u + 1e-9) ok = false
    }
    ok
  }
}
