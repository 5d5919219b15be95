package perfbench

import scala.util.hashing.MurmurHash3

import repro.core.Allocation
import repro.exp.Experiments

/** Output checks on every allocation the benchmark obtains. Each returns the
  * problems it found; an empty result means the check passed.
  */
object Checks {

  /** Every item gets exactly `b_i` distinct seeds in `[0, n)`; greedyWM's
    * item seed sets are nested prefixes; item-disj's are pairwise disjoint.
    */
  def allocation(algo: String, alloc: Allocation.Alloc, budgets: Array[Int], n: Int): Seq[String] = {
    val k = budgets.length
    val seeds = Array.tabulate(k)(Allocation.seedsOfItem(alloc, _))
    val range =
      if (alloc.forall { case (v, mask) => v >= 0 && v < n && mask != 0 && (mask >>> k) == 0 }) Nil
      else Seq(s"$algo: a seed lies outside [0, $n) or holds no item of the $k")
    val counts = (0 until k).collect {
      case i if seeds(i).size != budgets(i) => s"$algo: item $i has ${seeds(i).size} seeds, budget ${budgets(i)}"
    }
    val shape = algo match {
      case Experiments.AlgoGreedyWM =>
        val bySize = (0 until k).sortBy(i => budgets(i))
        bySize.zip(bySize.tail).collect {
          case (i, j) if !seeds(i).subsetOf(seeds(j)) => s"$algo: seeds of item $i are not a prefix of item $j's"
        }
      case Experiments.AlgoItemDisj =>
        if (alloc.values.forall(Integer.bitCount(_) == 1)) Nil
        else Seq(s"$algo: item seed sets overlap")
      case _ => Nil
    }
    range ++ counts ++ shape
  }

  /** PRIMM's per-prefix spread estimate never decreases. */
  def sigmaHat(what: String, sigmaHat: Array[Double]): Seq[String] =
    sigmaHat.indices.drop(1).collectFirst {
      case j if sigmaHat(j) < sigmaHat(j - 1) =>
        s"$what: sigmaHat decreases at prefix ${j + 1} (${sigmaHat(j - 1)} -> ${sigmaHat(j)})"
    }.toSeq

  /** Order-independent fingerprint of an allocation. */
  def digest(alloc: Allocation.Alloc): Int = MurmurHash3.orderedHash(alloc.toSeq.sorted)
}
