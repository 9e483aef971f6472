"""Storage-budget audits against paper Tables 4 and 8."""

import pytest

from repro.core.agent import AthenaAgent
from repro.core.features import FILTER_BITS, FeatureTracker
from repro.core.qvstore import QVStore
from repro.ocp import make_ocp
from repro.policies.hpac import HpacPolicy
from repro.policies.mab import MabPolicy
from repro.policies.tlp import TlpPolicy
from repro.prefetchers import make_prefetcher


class TestTable4:
    """Athena's own budget: QVStore 2KB + 2 x 0.5KB Bloom filters = 3KB."""

    def test_qvstore_2kib(self):
        store = QVStore(num_actions=4, num_planes=8, rows_per_plane=64,
                        q_value_bits=8)
        assert store.storage_kib() == pytest.approx(2.0)

    def test_each_tracker_filter_half_kib(self):
        assert FILTER_BITS == 4096  # 0.5 KB
        assert FeatureTracker().storage_bits() == 2 * 4096 + 6 * 16

    def test_total_athena_3kib(self):
        agent = AthenaAgent(num_actions=4)
        assert agent.storage_kib() == pytest.approx(3.0, abs=0.05)


class TestTable8Prefetchers:
    """Each prefetcher must stay within its paper budget class."""

    @pytest.mark.parametrize("name,limit_kib", [
        ("ipcp", 0.7 * 1.5),
        ("berti", 2.55 * 2.0),
        ("pythia", 25.5),
        ("spp_ppf", 39.3),
        ("mlop", 8.0 * 1.1),
        ("sms", 20.0 * 1.05),
    ])
    def test_prefetcher_budget(self, name, limit_kib):
        assert make_prefetcher(name).storage_kib() <= limit_kib

    def test_relative_ordering_matches_paper(self):
        """Table 8: IPCP is the smallest; SMS and SPP+PPF the large L2C
        table classes (exact mid-range ordering is implementation
        detail — the budget-class tests above pin each absolute size)."""
        sizes = {
            name: make_prefetcher(name).storage_bits()
            for name in ("ipcp", "berti", "mlop", "sms", "spp_ppf")
        }
        assert sizes["ipcp"] == min(sizes.values())
        assert sizes["ipcp"] < sizes["berti"]
        assert sizes["mlop"] < sizes["sms"]
        assert sizes["mlop"] < sizes["spp_ppf"]


class TestTable8OcpsAndPolicies:
    @pytest.mark.parametrize("name,limit_kib", [
        ("popet", 4.0),
        ("hmp", 11.0 * 1.1),
    ])
    def test_ocp_budget(self, name, limit_kib):
        assert make_ocp(name).storage_kib() <= limit_kib

    def test_ttp_is_the_expensive_one(self):
        """Table 8: TTP needs ~L2-tag-array-scale metadata (1536 KB)."""
        ttp = make_ocp("ttp")
        popet = make_ocp("popet")
        assert ttp.storage_bits() > 30 * popet.storage_bits()

    def test_policy_budgets_ordered_like_table8(self):
        """Table 8: MAB (0.1KB) < HPAC (0.5KB) < Athena (3KB) < TLP (6.98KB)."""
        mab = MabPolicy()
        mab.arms = (None,) * 4
        hpac = HpacPolicy()
        athena_bits = AthenaAgent(4).storage_bits()
        tlp = TlpPolicy()
        assert mab.storage_bits() < hpac.storage_bits()
        assert hpac.storage_bits() < athena_bits
        assert athena_bits < tlp.storage_bits()

    def test_tlp_reports_the_paper_budget(self):
        """Table 8: TLP's two perceptron levels take 6.98 KB."""
        assert TlpPolicy().storage_bits() == 57_180
