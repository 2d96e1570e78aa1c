"""Table 2: the comparison-point feature matrix.

Regenerates the paper's Table 2 and verifies each configuration builds
an engine that does what its row says.
"""

from bench_util import emit

from repro.core.config import CONFIGS, ImgFuzzMode, render_table2
from repro.core.pmfuzz import build_engine


def test_table2(benchmark):
    def build_all():
        return [build_engine("hashmap_tx", config) for config in CONFIGS]

    engines = benchmark(build_all)
    lines = ["== Table 2: comparison points ==", render_table2()]
    emit("table2_configs", lines)

    by_name = {e.config.name: e for e in engines}
    # Indirect image fuzzing reads every execution's final image; the
    # AFL++ rows leave it out of the result.
    assert by_name["PMFuzz (All Feat.)"].executor.keep_final_image
    assert by_name["PMFuzz w/o SysOpt"].executor.keep_final_image
    assert not by_name["AFL++"].executor.keep_final_image
    assert by_name["PMFuzz (All Feat.)"].storage.store.compress
    assert not by_name["PMFuzz w/o SysOpt"].storage.store.compress
    assert by_name["AFL++ w/ SysOpt"].cost_model.sys_opt
    assert not by_name["AFL++"].cost_model.sys_opt
    assert by_name["AFL++ w/ ImgFuzz"].config.img_fuzz is ImgFuzzMode.DIRECT
