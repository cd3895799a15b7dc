"""Tests for the YCSB core workload (load + run phases)."""

import pytest

from repro.errors import WorkloadError
from repro.ycsb import CoreWorkload, Operation, OperationType, WorkloadConfig


class TestConfigValidation:
    def test_defaults_valid(self):
        WorkloadConfig()

    def test_rejects_bad_recordcount(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(recordcount=0)

    def test_rejects_negative_operationcount(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(operationcount=-1)

    def test_rejects_negative_proportion(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(update_proportion=-0.5)

    def test_rejects_all_zero_mix(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(update_proportion=0.0, operationcount=10)

    def test_all_zero_mix_ok_with_no_operations(self):
        WorkloadConfig(update_proportion=0.0, operationcount=0)

    def test_insert_update_mix_helper(self):
        config = WorkloadConfig.insert_update_mix(0.25, operationcount=100)
        assert config.update_proportion == 0.25
        assert config.insert_proportion == 0.75
        with pytest.raises(WorkloadError):
            WorkloadConfig.insert_update_mix(1.5)


class TestLoadPhase:
    def test_inserts_recordcount_keys(self):
        workload = CoreWorkload(WorkloadConfig(recordcount=50, operationcount=0))
        ops = list(workload.load_operations())
        assert len(ops) == 50
        assert all(op.type is OperationType.INSERT for op in ops)
        assert [op.key for op in ops] == list(range(50))
        assert workload.inserted_count == 50

    def test_value_size_propagates(self):
        workload = CoreWorkload(
            WorkloadConfig(recordcount=3, operationcount=0, value_size=256)
        )
        assert all(op.value_size == 256 for op in workload.load_operations())


class TestRunPhase:
    def test_requires_load_first(self):
        workload = CoreWorkload(WorkloadConfig(recordcount=10, operationcount=5))
        with pytest.raises(WorkloadError):
            next(workload.run_operations())

    def test_operation_count(self):
        workload = CoreWorkload(WorkloadConfig(recordcount=10, operationcount=123))
        list(workload.load_operations())
        assert len(list(workload.run_operations())) == 123

    def test_pure_update_mix_touches_loaded_keys(self):
        config = WorkloadConfig(
            recordcount=20, operationcount=500, update_proportion=1.0
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        ops = list(workload.run_operations())
        assert all(op.type is OperationType.UPDATE for op in ops)
        assert all(0 <= op.key < 20 for op in ops)
        assert workload.inserted_count == 20

    def test_pure_insert_mix_appends_fresh_keys(self):
        config = WorkloadConfig(
            recordcount=10,
            operationcount=30,
            update_proportion=0.0,
            insert_proportion=1.0,
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        ops = list(workload.run_operations())
        assert [op.key for op in ops] == list(range(10, 40))
        assert workload.inserted_count == 40

    def test_mixed_proportions_roughly_respected(self):
        config = WorkloadConfig(
            recordcount=100,
            operationcount=10_000,
            update_proportion=0.6,
            insert_proportion=0.4,
            seed=3,
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        ops = list(workload.run_operations())
        updates = sum(1 for op in ops if op.type is OperationType.UPDATE)
        assert 5500 <= updates <= 6500

    def test_inserts_grow_latest_window(self):
        """With 'latest', run-phase updates should hit recently inserted keys."""
        config = WorkloadConfig(
            recordcount=100,
            operationcount=4000,
            update_proportion=0.5,
            insert_proportion=0.5,
            distribution="latest",
            seed=1,
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        updated = [op.key for op in workload.run_operations() if op.type is OperationType.UPDATE]
        # at least some updates land beyond the originally loaded range
        assert any(key >= 100 for key in updated)

    def test_scan_operations_have_length(self):
        config = WorkloadConfig(
            recordcount=10,
            operationcount=50,
            update_proportion=0.0,
            scan_proportion=1.0,
            max_scan_length=7,
        )
        workload = CoreWorkload(config)
        list(workload.load_operations())
        ops = list(workload.run_operations())
        assert all(op.type is OperationType.SCAN for op in ops)
        assert all(1 <= op.scan_length <= 7 for op in ops)

    def test_deletes_are_writes(self):
        op = Operation(OperationType.DELETE, 5)
        assert op.is_write
        assert not Operation(OperationType.READ, 5).is_write


class TestDeterminism:
    def test_same_seed_same_ops(self):
        config = WorkloadConfig(recordcount=50, operationcount=500, seed=9)
        first = [
            (op.type, op.key) for op in CoreWorkload(config).all_operations()
        ]
        second = [
            (op.type, op.key) for op in CoreWorkload(config).all_operations()
        ]
        assert first == second

    def test_different_seed_differs(self):
        base = dict(recordcount=50, operationcount=500)
        a = [
            (op.type, op.key)
            for op in CoreWorkload(WorkloadConfig(seed=1, **base)).all_operations()
        ]
        b = [
            (op.type, op.key)
            for op in CoreWorkload(WorkloadConfig(seed=2, **base)).all_operations()
        ]
        assert a != b


class TestOpStreamColumns:
    """The columnar op stream == the scalar operation loop, per mix."""

    MIX_CONFIGS = {
        "writes-only": dict(insert_proportion=0.4, update_proportion=0.6),
        "read-heavy": dict(read_proportion=0.8, update_proportion=0.2),
        "scans": dict(
            read_proportion=0.1,
            scan_proportion=0.3,
            insert_proportion=0.3,
            update_proportion=0.3,
        ),
        "deletes": dict(
            delete_proportion=0.2, insert_proportion=0.4, update_proportion=0.4
        ),
        "all-read": dict(read_proportion=1.0, update_proportion=0.0),
    }

    @staticmethod
    def scalar_reference(config):
        """Write columns + op codes from the operation-at-a-time loop."""
        keynums, tombstones, codes = [], [], []
        for op in CoreWorkload(config).all_operations():
            codes.append(op.type.code)
            if not op.is_write:
                continue
            if op.type is OperationType.DELETE:
                tombstones.append(len(keynums))
            keynums.append(op.key)
        return keynums, tombstones, bytes(codes)

    @pytest.mark.parametrize("mix", sorted(MIX_CONFIGS))
    @pytest.mark.parametrize("distribution", ("uniform", "zipfian", "latest"))
    def test_stream_identical_to_scalar_loop(self, mix, distribution):
        config = WorkloadConfig(
            recordcount=120,
            operationcount=1500,
            distribution=distribution,
            seed=13,
            **self.MIX_CONFIGS[mix],
        )
        stream = CoreWorkload(config).op_stream_columns()
        keynums, tombstones, codes = self.scalar_reference(config)
        assert list(stream.write_keynums) == keynums
        assert stream.tombstone_positions == tombstones
        assert stream.op_codes == codes
        assert stream.total_operations == 120 + 1500 == len(stream.op_codes)
        assert stream.write_count == len(keynums)
        # The op-type column decodes back through CODE_OP_TYPES: its
        # write rows must agree with the write columns exactly.
        from repro.ycsb.operations import CODE_OP_TYPES

        decoded_writes = sum(
            1 for code in stream.op_codes if CODE_OP_TYPES[code].is_write
        )
        assert decoded_writes == stream.write_count

    def test_rng_state_reusable_after_stream(self):
        """Draws after the batch continue the scalar stream (zeta state
        and rng position both survive the vectorized decode)."""
        config = WorkloadConfig(
            recordcount=50,
            operationcount=400,
            distribution="zipfian",
            read_proportion=0.5,
            update_proportion=0.5,
            seed=3,
        )
        scalar = CoreWorkload(config)
        for _ in scalar.all_operations():
            pass
        batched = CoreWorkload(config)
        batched.op_stream_columns()
        follow_scalar = [
            op.key for op in _drain_run_ops(scalar, 20)
        ]
        follow_batched = [op.key for op in _drain_run_ops(batched, 20)]
        assert follow_scalar == follow_batched

    def test_supports_op_stream_covers_every_mix(self):
        for mix in self.MIX_CONFIGS.values():
            config = WorkloadConfig(recordcount=10, operationcount=10, **mix)
            assert CoreWorkload(config).supports_op_stream()

    def test_key_name_subclass_not_supported(self):
        class Named(CoreWorkload):
            def key_name(self, keynum):
                return f"user{keynum}"

        workload = Named(WorkloadConfig(recordcount=10, operationcount=10))
        assert not workload.supports_op_stream()
        with pytest.raises(WorkloadError):
            workload.op_stream_columns()

    def test_read_mix_splits_into_writes_and_read_ops(self):
        config = WorkloadConfig(
            recordcount=10,
            operationcount=10,
            read_proportion=0.5,
            update_proportion=0.5,
        )
        stream = CoreWorkload(config).op_stream_columns(include_read_ops=True)
        assert stream.total_operations == 20
        assert stream.read_ops.read_count > 0
        assert stream.write_count + stream.read_ops.read_count == 20


def _drain_run_ops(workload, count):
    """A few more run-phase operations from an already-driven workload."""
    from itertools import islice

    from dataclasses import replace as dc_replace

    more = dc_replace(workload.config, operationcount=count)
    workload.config = more
    return islice(workload.run_operations(), count)
