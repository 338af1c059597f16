import numpy as np

import digest
from dualcan import cli, model


def test_digests_repeat_and_see_a_one_ulp_change(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), "--size", "24", "--seed", "2"]) == 0
    config = cli.build_run_config(cli.build_parser().parse_args(
        ["train", "--config", str(tmp_path / "config.cfg"), "--set", "hp.max_epochs=1"]))
    prepared = cli.prepare_data(config, config.hp)

    def digests(nudge=False):
        params = model.ModelParams.create(config.hp)
        if nudge:
            params.values[0] = np.nextafter(params.values[0], np.inf)
        return digest.model_digests(prepared, config.hp, params)

    first = digests()
    assert sorted(first) == sorted(["prepared_data", "batch_grads", "batch_grads.N+C",
                                    "batch_grads.N+E", "trained_values", "run_sample",
                                    *(f"predict.{mode}" for mode in model.MODES)])
    assert digests() == first
    assert digests(nudge=True)["trained_values"] != first["trained_values"]
    # a moved token id, or a moved token in the vocabulary, moves the prepared digest
    prepared.train[0].news.ids[0] += 1
    assert digest.prepared_digest(prepared) != first["prepared_data"]
    prepared.train[0].news.ids[0] -= 1
    assert digest.prepared_digest(prepared) == first["prepared_data"]
    prepared.vocab.add("an added token")
    assert digest.prepared_digest(prepared) != first["prepared_data"]


def test_sha_covers_dtype_shape_and_order():
    a = np.arange(6.0)
    assert digest.sha(a) == digest.sha(a.copy())
    assert len({digest.sha(a), digest.sha(a.reshape(2, 3)), digest.sha(a.astype(np.float32)),
                digest.sha(a[:3], a[3:]), digest.sha(a[3:], a[:3])}) == 5
