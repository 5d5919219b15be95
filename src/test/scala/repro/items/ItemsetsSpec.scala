package repro.items

import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers

class ItemsetsSpec extends AnyFunSuite with PropHelpers {

  test("size counts bits") {
    assert(Itemsets.size(0) == 0)
    assert(Itemsets.size(0b1011) == 3)
  }

  test("items lists set bits in ascending order") {
    assert(Itemsets.items(0b1011) == Seq(0, 1, 3))
    assert(Itemsets.items(0) == Seq())
  }

  test("nonEmptySubsets enumerates 2^|S|-1 subsets") {
    val subs = Itemsets.nonEmptySubsets(0b111)
    assert(subs.toSet == Set(1, 2, 3, 4, 5, 6, 7))
  }

  test("nonEmptySubsets of a sparse mask stays within the mask") {
    val subs = Itemsets.nonEmptySubsets(0b101)
    assert(subs.toSet == Set(0b001, 0b100, 0b101))
  }

  test("nonEmptySubsets of empty mask is empty") {
    assert(Itemsets.nonEmptySubsets(0).isEmpty)
  }

  test("show uses 1-based paper names") {
    assert(ItemsetChecks.show(0b101) == "{i1,i3}")
    assert(ItemsetChecks.show(0) == "{}")
  }

  test("property: every subset returned is a non-empty submask") {
    forRandomInts(50, 0, 1023) { mask =>
      Itemsets.nonEmptySubsets(mask).foreach(s => assert((s & ~mask) == 0 && s != 0))
    }
  }

  test("property: subset count is 2^popcount - 1") {
    forRandomInts(50, 0, 1023) { mask =>
      assert(Itemsets.nonEmptySubsets(mask).size == (1 << Integer.bitCount(mask)) - 1)
    }
  }

  test("property: subsets are distinct") {
    forRandomInts(30, 0, 255) { mask =>
      val subs = Itemsets.nonEmptySubsets(mask)
      assert(subs.distinct.size == subs.size)
    }
  }
}
