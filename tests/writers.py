"""Writers for the files the library reads: mono 16-bit WAVs, corpus
manifests (``synthdata.load_manifest``), experiment config files
(``config.load_config``) and edited checkpoint metadata. Only the tests
write these."""

import json
import wave
from dataclasses import asdict
from pathlib import Path

import numpy as np


def save_wav(w, path) -> None:
    """Write a waveform as mono 16-bit PCM WAV."""
    x = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(x.tobytes())


def export_corpus(corpus, out_dir) -> Path:
    """Write WAVs plus a `<utt_id> <speaker_id> <path>` manifest.

    Returns the manifest path. Paths in the manifest are relative to the
    manifest's directory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.txt"
    with open(manifest, "w") as f:
        for w in corpus:
            rel = Path(w.speaker_id) / f"{w.utterance_id}.wav"
            save_wav(w, out_dir / rel)
            f.write(f"{w.utterance_id} {w.speaker_id} {rel}\n")
    return manifest


def save_config(cfg, path) -> None:
    """Write an ``ExperimentConfig`` as the JSON ``load_config`` reads."""
    with open(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2)
        f.write("\n")


def rewrite_meta(path, edit):
    """Apply ``edit`` to the JSON meta of the checkpoint archive at ``path``."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta"]))
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
