import numpy as np
import pytest

from mfcontrast import trainer
from mfcontrast.encoder import EncoderConfig
from mfcontrast.heads import HeadConfig
from mfcontrast.losses import LossConfig
from mfcontrast.synthdata import SynthSpec, generate_corpus
from mfcontrast.trainer import OBJECTIVES, TrainConfig

CORPUS = generate_corpus(SynthSpec(n_speakers=3, utts_per_speaker=4, duration=0.5,
                                   sample_rate=8000, seed=1))
ENC = EncoderConfig(num_blocks=2, model_dim=16, num_heads=2, ff_expansion=2,
                    conv_kernel=7, dropout=0.1, input_dim=16)
HEAD = HeadConfig(embed_dim=8, attention_hidden=6)


def tiny(objective):
    """Three epochs of two 12-row steps, with every weight nonzero."""
    return TrainConfig(batch_size=6, lr=3e-3, epochs=3, seed=4, objective=objective,
                       crop_duration=0.3, n_mels=16,
                       loss=LossConfig(lam=0.3, lam1=0.2, lam2=0.1, temperature=0.2))


@pytest.fixture(scope="module")
def histories():
    """Two runs of every objective with one seed: name -> (history, history)."""
    return {name: tuple(trainer.train(CORPUS, ENC, HEAD, tiny(name)).history
                        for _ in range(2))
            for name in OBJECTIVES}


def totals(history):
    return np.array([h["total"] for h in history])


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_fixed_seed_reproduces_the_loss_curve(histories, name):
    first, second = histories[name]
    assert len(first) == 6
    np.testing.assert_array_equal(totals(first), totals(second))


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_last_epoch_mean_loss_is_below_the_first(histories, name):
    history = histories[name][0]
    by_epoch = {}
    for h in history:
        by_epoch.setdefault(h["epoch"], []).append(h["total"])
    assert np.mean(by_epoch[max(by_epoch)]) < np.mean(by_epoch[0])


def test_every_record_has_the_same_breakdown_keys(histories):
    keys = {frozenset(h) for runs in histories.values() for h in runs[0]}
    assert keys == {frozenset({"step", "epoch", "lr", "objective", "total", "ams",
                               "contrastive", "speaker_contrastive", "lambda_tap",
                               "lambda_spk"})}


def test_unknown_objective_is_rejected():
    with pytest.raises(ValueError, match="objective"):
        TrainConfig(objective="supcon_only")
