"""A small, slow statechart interpreter, written from the README's stated
semantics and kept as the reference ``machina.engine.run`` must match. It
imports nothing from ``machina`` and reads the machine's JSON document.

Per call of :meth:`Reference.run`:

- a fresh machine enters the start state and descends its ``initial`` links
  to a leaf, firing entry actions outermost first, as step 0;
- each turn: an end leaf completes the run. The enabled transitions are the
  leaf's own, then each ancestor's, innermost first, each in declaration
  order, and each guard is evaluated once. With no pending event, the run
  waits when every guard-passed transition has an external trigger. The
  run's budget ends it once the trajectory holds ``max_transitions`` steps.
  Otherwise the pending event, or else the policy's choice, is dispatched;
- the policy fast-forwards when exactly one guard-passed, internally
  triggered transition exists and its step needs no external argument;
  otherwise ``choose(selectable)`` picks among the guard-passed,
  internally triggered transitions, given as ``(event, required argument
  names)`` pairs, and returns ``(event, payload)`` or ``None`` (the policy is
  exhausted and the run fails);
- dispatch fires the first enabled transition for the event whose guard
  passed this turn; an unhandled event fails the run under ``"error"`` and
  is dropped under ``"ignore"``. A step exits from the leaf up to, not
  including, the least common ancestor (the deepest state that properly
  contains the target and contains the leaf), innermost first; runs the
  transition's actions; then enters from below that ancestor down to the
  target and on down its ``initial`` links, outermost first. The step and
  the new leaf are recorded even when one of its actions fails.

An action reads its external parameters from the event payload and its
internal ones from the store (under ``source_key``), gets them as they are,
and writes its output under ``output_key`` (default: its name). Guards are
the subset of the expression language the fuzz generates: ``or`` of ``and``
of clauses, each ``exists p``, ``not exists p`` or ``p OP literal`` with
``==``, ``!=``, ``<``, ``>=``, a quoted string or an integer. A missing path
makes ``exists`` false and every comparison false except ``!=``.
"""

COMPLETED = "completed"
WAITING = "waiting"
BUDGET_EXHAUSTED = "budget_exhausted"
FAILED = "failed"


class Failure(Exception):
    """Ends the run as ``failed``."""


def _walk(states, parent, out):
    for doc in states:
        out[doc["name"]] = (doc, parent)
        _walk(doc.get("substates", ()), doc["name"], out)
    return out


def _literal(text):
    if text.startswith("'"):
        return text[1:-1]
    return int(text)


def _clause(text, kv):
    negate = text.startswith("not ")
    if negate:
        text = text[len("not "):]
    if text.startswith("exists "):
        value = _path(text[len("exists "):], kv) is not _MISSING
    else:
        path, op, literal = text.split(" ", 2)
        left, right = _path(path, kv), _literal(literal)
        if left is _MISSING or type(left) is not type(right):
            value = op == "!="
        else:
            value = {
                "==": left == right,
                "!=": left != right,
                "<": left < right,
                ">=": left >= right,
            }[op]
    return not value if negate else value


_MISSING = object()


def _path(path, kv):
    if path.startswith("kv."):
        path = path[len("kv."):]
    return kv.get(path, _MISSING)


def guard_passes(expr, kv):
    if expr is None:
        return True
    return any(
        all(_clause(clause, kv) for clause in conjunction.split(" and "))
        for conjunction in expr.split(" or ")
    )


class Reference:
    def __init__(self, doc, actions, kv, choose, max_transitions, unhandled):
        self.states = _walk(doc["states"], None, {})
        self.transitions = doc["transitions"]
        self.start = next(s["name"] for s in doc["states"] if "start" in s.get("tags", ()))
        self.actions = actions
        self.choose = choose
        self.max_transitions = max_transitions
        self.unhandled = unhandled
        self.kv = dict(kv)
        self.leaf = None
        self.trajectory = []  # (step, source, target, event, payload or None)
        self.fired = []  # the transition of each step
        self.log = []  # (step, action, phase, output)

    # -- structure ---------------------------------------------------------

    def ancestors(self, name):
        """Innermost first, excluding ``name``."""
        chain = []
        parent = self.states[name][1]
        while parent is not None:
            chain.append(parent)
            parent = self.states[parent][1]
        return chain

    def down(self, name):
        """``name``, then its ``initial`` links down to a leaf."""
        path = [name]
        while self.states[path[-1]][0].get("substates"):
            path.append(self.states[path[-1]][0]["initial"])
        return path

    def enabled(self, leaf):
        return [
            t for owner in [leaf] + self.ancestors(leaf)
            for t in self.transitions if t["source"] == owner
        ]

    def exits_and_entries(self, leaf, target):
        around_leaf = [leaf] + self.ancestors(leaf)
        around_target = self.ancestors(target)
        lca = next((s for s in around_target if s in around_leaf), None)
        exits = around_leaf[: around_leaf.index(lca)] if lca else around_leaf
        above = around_target[: around_target.index(lca)] if lca else around_target
        return exits, list(reversed(above)) + self.down(target)

    def step_actions(self, leaf, t):
        exits, entries = self.exits_and_entries(leaf, t["target"])
        actions = [("exit", self.states[s][0]["exit"]) for s in exits if "exit" in self.states[s][0]]
        actions += [("transition", a) for a in t.get("actions", ())]
        actions += [
            ("entry", self.states[s][0]["entry"]) for s in entries if "entry" in self.states[s][0]
        ]
        return actions, entries[-1]

    def required(self, leaf, t):
        names = []
        for _, action in self.step_actions(leaf, t)[0]:
            for p in action.get("params", ()):
                if p["source"] == "external" and p["name"] not in names:
                    names.append(p["name"])
        return names

    # -- execution ---------------------------------------------------------

    def execute(self, action, payload, phase, step):
        inputs = {}
        for p in action.get("params", ()):
            if p["source"] == "external":
                if p["name"] not in payload:
                    raise Failure(f"missing external argument {p['name']}")
                inputs[p["name"]] = payload[p["name"]]
            else:
                key = p.get("source_key", p["name"])
                if key not in self.kv:
                    raise Failure(f"no value under {key}")
                inputs[p["name"]] = self.kv[key]
        try:
            output = self.actions[action["name"]](inputs)
        except Exception as exc:
            raise Failure(f"action {action['name']} failed") from exc
        self.kv[action.get("output_key", action["name"])] = output
        self.log.append((step, action["name"], phase, output))

    def decide(self, passed):
        selectable = [t for t in passed if t.get("trigger", "internal") == "internal"]
        if len(selectable) == 1 and not self.required(self.leaf, selectable[0]):
            return selectable[0]["event"], {}
        choice = self.choose([(t["event"], self.required(self.leaf, t)) for t in selectable])
        if choice is None:
            raise Failure("policy exhausted")
        return choice

    def dispatch(self, event, payload, outcomes):
        for t, passed in outcomes:
            if t["event"] == event and passed:
                break
        else:
            if self.unhandled == "ignore":
                return
            raise Failure(f"no transition for {event} at {self.leaf}")
        payload = dict(payload)
        step = len(self.trajectory) + 1
        actions, target_leaf = self.step_actions(self.leaf, t)
        self.fired.append(t)
        try:
            for phase, action in actions:
                self.execute(action, payload, phase, step)
        finally:
            self.trajectory.append((step, self.leaf, target_leaf, event, payload or None))
            self.leaf = target_leaf

    def run(self, event=None):
        """One ``run`` call: ``event`` is ``None`` or ``(name, payload)``.
        Returns the status."""
        try:
            if self.leaf is None:
                path = self.down(self.start)
                self.leaf = path[-1]
                for name in path:
                    if "entry" in self.states[name][0]:
                        self.execute(self.states[name][0]["entry"], {}, "entry", 0)
            pending = event
            while True:
                if "end" in self.states[self.leaf][0].get("tags", ()):
                    return COMPLETED
                outcomes = [
                    (t, guard_passes(t.get("guard", {}).get("expr"), self.kv))
                    for t in self.enabled(self.leaf)
                ]
                passed = [t for t, ok in outcomes if ok]
                event, pending = pending, None
                if event is None and all(t.get("trigger") == "external" for t in passed):
                    return WAITING
                if len(self.trajectory) >= self.max_transitions:
                    return BUDGET_EXHAUSTED
                if event is None:
                    event = self.decide(passed)
                self.dispatch(*event, outcomes)
        except Failure:
            return FAILED

    @property
    def output(self):
        return self.log[-1][3] if self.log else None
