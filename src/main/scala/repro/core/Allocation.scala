package repro.core

import repro.items.UtilityModel

/** A seed allocation `S ⊆ V × I` (§3.2), stored as node -> itemset mask. */
object Allocation {

  type Alloc = Map[Int, Int]

  /** Build an allocation from per-item seed lists.
    *
    * @param seedsPerItem `seedsPerItem(i)` = seed nodes of item `i`, for at
    *                     most `UtilityModel.MaxItems` items
    */
  def fromItemSeeds(seedsPerItem: Seq[Array[Int]]): Alloc = {
    require(seedsPerItem.length <= UtilityModel.MaxItems,
      s"at most ${UtilityModel.MaxItems} items are supported, got ${seedsPerItem.length}")
    val m = scala.collection.mutable.Map.empty[Int, Int]
    for ((seeds, i) <- seedsPerItem.zipWithIndex; v <- seeds)
      m(v) = m.getOrElse(v, 0) | (1 << i)
    m.toMap
  }

  /** Seed nodes of item `i` in the allocation. */
  def seedsOfItem(alloc: Alloc, i: Int): Set[Int] =
    alloc.collect { case (v, mask) if (mask & (1 << i)) != 0 => v }.toSet
}
