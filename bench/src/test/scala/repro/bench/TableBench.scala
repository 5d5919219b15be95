package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.Experiments.Table

/** A bench suite over table/figure definitions: each test prints a
  * definition's table and fails on any paper-shape gate it missed.
  */
trait TableBench extends AnyFunSuite {
  def check(t: Table): Unit = {
    t.show()
    assert(t.failed.isEmpty, t.failed.mkString("; "))
  }
}
