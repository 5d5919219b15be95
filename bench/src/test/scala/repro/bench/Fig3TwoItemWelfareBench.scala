package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.jobs.Fig3TwoItemWelfare

/** Fig. 3 (+ Fig. 8a/8b): expected social welfare, two items, all five
  * algorithms, Douban-Movie stand-in. One welfare step computes all six
  * configurations' tables; each test checks one.
  */
class Fig3TwoItemWelfareBench extends TableBench with SparkSpec {
  private lazy val tables = Fig3TwoItemWelfare.run(spark, Experiments.network("Douban-Movie"), 1 to 6)
  private def runConfig(no: Int): Unit = check(tables(no - 1))

  test("Fig 3(a): Configuration 2 — item-disj collapses, greedyWM = bundle-disj dominate") {
    runConfig(2)
  }
  test("Fig 3(b): Configuration 3") { runConfig(3) }
  test("Fig 3(c): Configuration 5") { runConfig(5) }
  test("Fig 3(d): Configuration 6") { runConfig(6) }
  test("Fig 8(a): Configuration 1") { runConfig(1) }
  test("Fig 8(b): Configuration 4") { runConfig(4) }
}
