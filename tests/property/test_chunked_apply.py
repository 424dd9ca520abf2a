# soundlint: disable-file=SL006 -- differential/property harness: direct evaluation is the oracle the masked path is compared against
"""Differential property tests: chunk-streamed paths ≡ materializing.

Two streaming fast paths carry PR 9's bounded-memory delivery, and
both are pinned to materializing oracles by soundlint SL005:

* ``iter_apply_chunked`` — masking chunk by chunk must concatenate to
  exactly what the interpreted ``Mask.apply`` (and the whole-relation
  kernels) produce, for any chunk size including 1 and sizes larger
  than the row count;
* ``iter_evaluate_optimized`` — the streaming evaluator's chunks must
  concatenate to ``evaluate_optimized``'s rows exactly, including
  order (set semantics dedupe across chunk boundaries).

The composition — stream evaluation into chunked masking — is what
``AuthorizationEngine.authorize_stream`` runs; its end-to-end parity
with ``authorize`` lives in ``tests/test_stream.py``.
"""

from hypothesis import given, strategies as st

from repro.algebra.columnar import iter_chunks
from repro.algebra.optimize import (
    evaluate_optimized,
    iter_evaluate_optimized,
)
from repro.core.compiled_mask import compile_mask, iter_apply_chunked
from repro.lang.parser import parse_query
from repro.calculus.to_algebra import compile_query
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

from tests.property.test_compiled_mask import (
    SLOW,
    masks_and_answers,
    seeds,
)

# 1 (degenerate), small odd (chunk boundaries mid-answer), larger than
# any generated answer, and non-positive (degrades to 1 by contract).
chunk_sizes = st.sampled_from((1, 3, 7, 100, 0))


def concat(chunks):
    return tuple(row for chunk in chunks for row in chunk)


class TestChunkedApplyMatchesOracle:
    @SLOW
    @given(masks_and_answers(), chunk_sizes, st.booleans())
    def test_concatenation_is_byte_identical(self, case, size, drop):
        mask, answer = case
        compiled = compile_mask(mask)
        streamed = concat(iter_apply_chunked(
            compiled, answer.rows, chunk_size=size,
            drop_fully_masked=drop,
        ))
        assert streamed == mask.apply(answer, drop_fully_masked=drop)
        assert streamed == compiled.apply(answer,
                                          drop_fully_masked=drop)

    @SLOW
    @given(masks_and_answers(), chunk_sizes)
    def test_chunk_shapes(self, case, size):
        # Without dropping, chunk sizes partition the answer exactly:
        # every chunk is full except possibly the last.
        mask, answer = case
        compiled = compile_mask(mask)
        chunks = list(iter_apply_chunked(
            compiled, answer.rows, chunk_size=size,
        ))
        effective = max(size, 1)
        assert all(len(c) == effective for c in chunks[:-1])
        assert sum(len(c) for c in chunks) == len(answer.rows)


class TestIterChunks:
    @SLOW
    @given(st.lists(st.tuples(st.integers(), st.integers())),
           chunk_sizes)
    def test_regrouping_preserves_rows(self, rows, size):
        assert concat(iter_chunks(rows, size)) == tuple(rows)


class TestStreamingEvaluatorMatchesOracle:
    @SLOW
    @given(seeds, chunk_sizes)
    def test_chunks_concatenate_to_evaluate_optimized(self, seed, size):
        generator = WorkloadGenerator(seed)
        spec = WorkloadSpec(seed=seed, relations=3,
                            rows_per_relation=10)
        db_schema = generator.schema(spec)
        database = generator.instance(spec, db_schema)
        for _ in range(3):
            query = generator.query(spec, db_schema)
            plan = compile_query(query, db_schema)
            streamed = concat(iter_evaluate_optimized(
                plan, database, chunk_size=size,
            ))
            # Exact order: the streaming evaluator is a regrouping of
            # the materializing one, not a reordering.
            assert streamed == evaluate_optimized(plan, database).rows

    def test_paper_example_streams_identically(self, paper_db):
        plan = compile_query(
            parse_query(
                "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)"
            ),
            paper_db.schema,
        )
        for size in (1, 2, 100):
            assert concat(iter_evaluate_optimized(
                plan, paper_db, chunk_size=size,
            )) == evaluate_optimized(plan, paper_db).rows
