"""Golden digest of every provider request the bundled QA variants send.

A performance change must leave every prompt byte-identical; this test shows
that by a digest rather than by a note. A deliberate prompt change updates
``PROMPT_DIGEST`` together with a CHANGES.md line that says why the prompts
changed.
"""

import hashlib
import json

from machina.engine import run
from machina.harness import ORACLE_SCRIPTS, generate_mini_clevr, make_qa_agent

PROMPT_DIGEST = "44796412f7bb8cd4ad26f3274e070bc92ef1a941a5abaaa413ca663fcaf7b2d5"
REQUESTS = 380


class HashingProvider:
    """Delegates to a scripted provider and hashes each request it sends."""

    def __init__(self, inner, digest):
        self.inner = inner
        self.digest = digest
        self.requests = 0

    def complete(self, request):
        self.digest.update(json.dumps([request.system, request.prompt]).encode() + b"\n")
        self.requests += 1
        return self.inner.complete(request)

    def snapshot_stats(self):
        return self.inner.snapshot_stats()


def test_oracle_prompts_match_the_golden_digest():
    digest = hashlib.sha256()
    requests = 0
    items = generate_mini_clevr(seed=7, n_scenes=20, questions_per_scene=3).items
    for variant in ("routing", "react", "planning"):
        for item in items:
            provider = HashingProvider(ORACLE_SCRIPTS[variant](item), digest)
            result = run(make_qa_agent(variant, item.question, item.scene, provider))
            assert result.status == "completed", (variant, item.index)
            requests += provider.requests
    assert (requests, digest.hexdigest()) == (REQUESTS, PROMPT_DIGEST)
