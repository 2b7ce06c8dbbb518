"""The analysis machinery behind the flow rules (JISC008, JISC010): the
per-function control-flow graph and the forward dataflow solver."""

import ast
import textwrap

from repro.lint.cfg import build_cfg
from repro.lint.dataflow import assigned_names, reaching_definitions


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------


def cfg_of(src):
    func = ast.parse(textwrap.dedent(src)).body[0]
    return build_cfg(func)


class TestCfg:
    def test_linear_function_single_path(self):
        cfg = cfg_of(
            """
            def f(x):
                y = x + 1
                return y
            """
        )
        assert cfg.exit_blocks()
        # entry reaches the exit
        reachable = {cfg.entry}
        frontier = [cfg.entry]
        while frontier:
            for succ in cfg.blocks[frontier.pop()].succs:
                if succ not in reachable:
                    reachable.add(succ)
                    frontier.append(succ)
        assert cfg.exit in reachable

    def test_if_creates_branch_and_join(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    y = 1
                else:
                    y = 2
                return y
            """
        )
        branching = [b for b in cfg.blocks.values() if len(b.succs) >= 2]
        assert branching, "if-statement should fork the CFG"

    def test_loop_has_back_edge(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    use(x)
                return None
            """
        )
        # some block's successor set contains a block at or before it
        assert any(
            succ <= bid for bid, b in cfg.blocks.items() for succ in b.succs
        )

    def test_finally_on_return_path(self):
        # a return inside try must route through the finally suite
        cfg = cfg_of(
            """
            def f():
                try:
                    return 1
                finally:
                    cleanup()
            """
        )
        stmts = [
            ast.unparse(s) for b in cfg.blocks.values() for s in b.stmts
        ]
        assert any("cleanup" in s for s in stmts)


class TestDataflow:
    def test_assigned_names_destructuring(self):
        target = ast.parse("a, (b, c) = x").body[0].targets[0]
        assert assigned_names(target) == ("a", "b", "c")

    def test_assigned_names_self_attr(self):
        target = ast.parse("self.x = 1").body[0].targets[0]
        assert assigned_names(target) == ("self.x",)

    def test_reaching_defs_join_at_merge(self):
        cfg = cfg_of(
            """
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        _, block_out = reaching_definitions(cfg)
        exit_defs = set()
        for pred in cfg.blocks[cfg.exit].preds:
            exit_defs |= set(block_out[pred].get("x", frozenset()))
        assert len(exit_defs) == 2, "both branches' defs must reach the merge"

    def test_loop_reaches_fixpoint(self):
        cfg = cfg_of(
            """
            def f(xs):
                total = 0
                for x in xs:
                    total = total + x
                return total
            """
        )
        _, block_out = reaching_definitions(cfg)
        all_defs = set()
        for state in block_out.values():
            all_defs |= set(state.get("total", frozenset()))
        assert len(all_defs) == 2  # init line and loop-body line
