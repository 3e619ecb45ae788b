"""Per-process memos of sweep-point inputs, and request-scoped key memos.

Every pipeline context builds a fresh store and fresh ops, but the
synthetic dataset (``load_dataset``) and the backend's MAC netlist
(``HardwareBackend.build_mac``) are pure functions of their arguments,
so each is built once per process and shared.  These tests pin that the
sharing happens, that it cannot leak writes between users, and that it
changes no result and no stage key.
"""

import numpy as np
import pytest

from repro.cells import default_library
from repro.core.pipeline import POWER_PRUNING_GRAPH, PipelineConfig, \
    PowerPruner
from repro.data import datasets, load_dataset
from repro.data.synthetic import generate
from repro.experiments.config import NETWORK_SPECS, pipeline_config
from repro.hw import DEFAULT_BACKEND_ID, get_backend
from repro.netlist import build_mac_unit
from repro.power import (
    PartialSumBinner,
    TransitionDistribution,
    WeightPowerCharacterizer,
)
from repro.power.binning import BinnedTransitions

#: Stage keys of the smoke LeNet-5 config (default backend and
#: accelerator point), as derived before the request-scoped key memo;
#: a disk cache written under those keys must still be served.
SMOKE_LENET_KEYS = {
    "dataset":
        "1d5f189fc969565745be28df046c151f6611ffec7c710fd291f9595da1144b23",
    "baseline":
        "557956b954ccd8624d15b9ce1e4c3efddcbd0a32942ccaaca998cef8055be8a2",
    "pruned":
        "007921456f0347c012b300fccb8cd844f5db3d7573720fd16b63177c4717f47a",
    "operand_stats":
        "41fde27e2ab0954be3bbb4b39a3e041869ca1c40bdf2b39c07cef9b9d8bd6d2d",
    "power_table":
        "95bc50085cb594c7a9d4cecdb63cc1c9dc074ca564cc1844c5dc5ee53be2b141",
    "power_selection":
        "ffc8e994b87fc50a817fba7ffae1f65ff5120ac44a91a3efd13f4800d715ca17",
    "timing_table":
        "6cfac257527c2eb977c4e945830852c48c7bc84a17f9bd7d76b0f9b9297f2035",
    "delay_selection":
        "e77ef6f07ae75bca50fa45e2785d91aada38ce3566ce96eb5d4c9fce57813202",
    "voltage_scaling":
        "de93a0c3860c9f11335b9eafd286f4d8d91d18ef04db6fe7605f14957ddbc8a8",
    "power_measurement":
        "ea938289b2d0f764f5a75a93cf40eb976a2e75005fe5b596021d7cd7c646f370",
    "report":
        "0d7582051479077cd71c5ee9851a4dfaf8951dae81d576031bd960b745f3a07c",
    "accel_schedule":
        "be0428ba2e1a2a65e7a1c69fc6434ec704c9625dda5b1dadb9d6302d2aaeb83f",
    "accel_eval":
        "1c4e5e29d08cd237112fe493bdbac9d0e23da292853d889767035a828f15cf27",
}


@pytest.fixture
def generate_calls(monkeypatch):
    """Empty dataset memo plus a counter of real generations."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(datasets, "generate", counted)
    datasets._build_shared.cache_clear()
    yield calls
    datasets._build_shared.cache_clear()


def _dataset_config(**overrides) -> PipelineConfig:
    fields = dict(network="lenet5", dataset="cifar10", num_classes=10,
                  n_train=40, n_test=20)
    fields.update(overrides)
    return PipelineConfig(**fields)


def _dataset_of(config: PipelineConfig):
    return PowerPruner(config).runner().get("dataset")


class TestDatasetMemo:
    def test_fresh_stores_share_one_generation(self, generate_calls):
        first = PowerPruner(_dataset_config())
        second = PowerPruner(_dataset_config())
        assert first.store is not second.store
        dataset = first.runner().get("dataset")
        assert second.runner().get("dataset") is dataset
        assert len(generate_calls) == 1
        # each store still runs (and counts) its own dataset stage
        assert first.store.misses == second.store.misses == 1

    @pytest.mark.parametrize("overrides", [
        {"dataset": "cifar100"},
        {"n_train": 60},
        {"n_test": 30},
    ])
    def test_changed_inputs_give_distinct_datasets(self, generate_calls,
                                                   overrides):
        base = _dataset_of(_dataset_config())
        other = _dataset_of(_dataset_config(**overrides))
        assert other is not base
        assert len(generate_calls) == 2

    def test_num_classes_gives_distinct_dataset(self, generate_calls):
        # cifar10 has a fixed class count; cifar100 takes num_classes
        base = _dataset_of(_dataset_config(dataset="cifar100"))
        other = _dataset_of(_dataset_config(dataset="cifar100",
                                            num_classes=5))
        assert other is not base
        assert other.num_classes == 5 and base.num_classes == 10

    def test_arrays_reject_in_place_writes(self, generate_calls):
        dataset = _dataset_of(_dataset_config())
        for name in ("x_train", "y_train", "x_test", "y_test"):
            array = getattr(dataset, name)
            with pytest.raises(ValueError):
                array[0] = 0
            with pytest.raises(ValueError):
                array += 1
            # slices handed to the stages are read-only views too
            with pytest.raises(ValueError):
                array[:2][...] = 0

    def test_fields_cannot_be_rebound(self, generate_calls):
        dataset = _dataset_of(_dataset_config())
        with pytest.raises(AttributeError):
            dataset.x_train = np.zeros(1)

    def test_bit_equal_to_direct_generation(self, generate_calls):
        shared = load_dataset("cifar100", n_train=50, n_test=25,
                              num_classes=5)
        direct = generate("cifar100-like", num_classes=5, n_train=50,
                          n_test=25, noise=1.5, seed=1)
        assert shared.name == direct.name
        assert shared.num_classes == direct.num_classes
        for name in ("x_train", "y_train", "x_test", "y_test"):
            ours, theirs = getattr(shared, name), getattr(direct, name)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()

    def test_memo_is_bounded(self, generate_calls):
        bound = datasets._build_shared.cache_info().maxsize
        assert bound == len(datasets._BUILDERS)
        for n_train in range(40, 40 + 3 * bound):
            load_dataset("cifar10", n_train=n_train, n_test=20)
        assert datasets._build_shared.cache_info().currsize == bound
        # the oldest request was evicted and is generated again
        before = len(generate_calls)
        load_dataset("cifar10", n_train=40, n_test=20)
        assert len(generate_calls) == before + 1


def _power_table(mac):
    """Calibrated power of a few weights, characterized on ``mac``."""
    rng = np.random.default_rng(0)
    stream = rng.integers(-(1 << 18), 1 << 18, 2000)
    binner = PartialSumBinner(n_bins=6).fit(stream, rng=rng)
    characterizer = WeightPowerCharacterizer(
        mac, default_library(), TransitionDistribution.diagonal(256),
        BinnedTransitions.from_stream(binner, stream), n_samples=200)
    return characterizer.characterize([-105, -2, 0, 5, 127], seed=0)


class TestMacMemo:
    def test_one_mac_per_spec(self):
        backend = get_backend(DEFAULT_BACKEND_ID)
        assert backend.build_mac() is backend.build_mac()
        first = PowerPruner(PipelineConfig())
        second = PowerPruner(PipelineConfig())
        assert first.mac is second.mac is backend.build_mac()

    def test_distinct_specs_get_distinct_macs(self):
        booth = get_backend("nangate15-booth").build_mac()
        array = get_backend("nangate15-array").build_mac()
        assert booth is not array
        assert (booth.style, array.style) == ("booth", "array")

    def test_shared_mac_characterizes_like_a_fresh_one(self):
        backend = get_backend(DEFAULT_BACKEND_ID)
        shared = PowerPruner(PipelineConfig()).mac
        # another context has already used it (lazy schedules filled)
        _power_table(shared)
        reused = _power_table(PowerPruner(PipelineConfig()).mac)
        fresh = _power_table(build_mac_unit(
            act_bits=backend.act_bits, weight_bits=backend.weight_bits,
            product_bits=backend.product_bits,
            psum_bits=backend.psum_bits,
            style=backend.multiplier_style,
            adder_style=backend.adder_style))
        assert fresh.weights.tobytes() == reused.weights.tobytes()
        assert fresh.power_uw.tobytes() == reused.power_uw.tobytes()
        assert fresh.dynamic_uw.tobytes() == reused.dynamic_uw.tobytes()
        assert fresh.leakage_uw == reused.leakage_uw
        assert fresh.energy_scale == reused.energy_scale


@pytest.mark.slow
class TestRequestScopedKeys:
    def test_keys_unchanged_and_old_cache_served(self, smoke_cache_dir):
        config = pipeline_config(NETWORK_SPECS[0], "smoke")
        assert POWER_PRUNING_GRAPH.keys(config) == SMOKE_LENET_KEYS

        runner = PowerPruner(config, cache_dir=smoke_cache_dir).runner()
        names = POWER_PRUNING_GRAPH.names()
        assert len(names) == 13
        assert {name: runner.key(name) for name in names} == \
            SMOKE_LENET_KEYS
        runner.get("accel_eval")
        assert {name: runner.key(name) for name in names} == \
            SMOKE_LENET_KEYS
        runner.get("report")
        assert POWER_PRUNING_GRAPH.keys(config) == SMOKE_LENET_KEYS

        warm = PowerPruner(config, cache_dir=smoke_cache_dir)
        warm_runner = warm.runner()
        warm_runner.get("accel_eval")
        warm_runner.get("report")
        assert warm.store.misses == 0
        assert warm.store.disk_hits == 2
