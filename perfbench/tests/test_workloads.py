from collections import Counter

import workloads


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        first = workloads.inputs_digest(workload.make_inputs(3))
        assert workloads.inputs_digest(workload.make_inputs(3)) == first
        assert workloads.inputs_digest(workload.make_inputs(4)) != first


def test_every_variant_sees_every_question_type_evenly():
    pairs = Counter((item.variant, item.data.qtype) for item in workloads.qa_inputs(1))
    assert len(pairs) == 9
    assert max(pairs.values()) - min(pairs.values()) <= 1


def test_resume_sequences_span_the_stated_lengths():
    items = workloads.resume_inputs(2)
    lengths = [len(item.events) for item in items]
    assert min(lengths) <= 12 and max(lengths) >= 57
    assert all(workloads.MIN_EVENTS - 2 <= n <= workloads.MAX_EVENTS for n in lengths)
    assert Counter(item.workflow for item in items) == {w: workloads.RESUME_PER_WORKFLOW for w in workloads.WORKFLOWS}


def test_resume_items_end_at_the_end_leaf_after_every_event():
    items = sorted(workloads.resume_inputs(9), key=lambda item: len(item.events))
    for workflow in workloads.WORKFLOWS:
        item = next(i for i in items if i.workflow == workflow)
        outcome = workloads.run_resume_item(item, workloads.ZERO_LATENCY)
        assert outcome.correct, outcome.detail
        assert outcome.calls == 0


def test_a_wrong_answer_is_scored_as_wrong():
    item = workloads.qa_inputs(1)[0]
    wrong = workloads.QaItem(item.index, item.variant, item.data, ("judging", "no such answer"))
    outcome = workloads.run_chatty_item(wrong, workloads.ZERO_LATENCY)
    assert not outcome.correct
