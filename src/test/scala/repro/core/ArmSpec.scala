package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.spade.{AggFn, MdaKey}

class ArmSpec extends AnyFunSuite {

  private def k(dims: String*) = MdaKey("cfs", dims.sorted, "*", AggFn.Count)
  private def res(vs: Double*) =
    AggResult(vs.indices.map(i => s"g$i").toArray, vs.toArray)

  test("add stores results and scores them with h") {
    val arm = new Arm(Interestingness.Variance)
    arm.add(k("a"), res(1, 1, 1))
    arm.add(k("b"), res(1, 10, 100))
    assert(arm.score(k("a")).get === 0.0)
    assert(arm.score(k("b")).get > 0.0)
    assert(arm.evaluatedCount === 2)
  }

  test("topK orders by score descending with deterministic ties") {
    val arm = new Arm(Interestingness.Variance)
    arm.add(k("a"), res(0, 100))
    arm.add(k("b"), res(0, 1))
    arm.add(k("c"), res(0, 10))
    assert(arm.topK(2).map(_._1) === Seq(k("a"), k("c")))
  }

  test("contains covers evaluated and pruned; pruned never enters topK") {
    val arm = new Arm(Interestingness.Variance)
    arm.add(k("a"), res(0, 100))
    arm.markPruned(k("b"))
    assert(arm.contains(k("a")) && arm.contains(k("b")))
    assert(!arm.isEvaluated(k("b")))
    assert(arm.topK(5).map(_._1) === Seq(k("a")))
    assert(arm.prunedCount === 1)
  }

  test("markPruned on an already-evaluated key is a no-op") {
    val arm = new Arm(Interestingness.Variance)
    arm.add(k("a"), res(0, 1))
    arm.markPruned(k("a"))
    assert(arm.prunedCount === 0)
  }

  test("AggResult enforces key/value alignment") {
    assertThrows[IllegalArgumentException](AggResult(Array("g0"), Array(1.0, 2.0)))
  }
}
