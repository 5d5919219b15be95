package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.jobs.Fig8Skew

/** Fig. 7(c) / Fig. 8(c): budget skew on the Twitter stand-in (the
  * appendix variant).
  */
class Fig8SkewBench extends TableBench with SparkSpec {
  test("Fig 8(c): budget skew, Configuration 7, total 500, 10 items") {
    check(Fig8Skew.run(spark, Experiments.network("Twitter")))
  }
}
