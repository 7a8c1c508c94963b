#include <gtest/gtest.h>

#include <vector>

#include "fvl/core/parse_tree.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/run/run.h"
#include "fvl/run/run_generator.h"
#include "fvl/run/view_projection.h"
#include "fvl/workflow/production_graph.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "test_util.h"

namespace fvl {
namespace {

using ::fvl::testing::CompleteRun;

TEST(Run, StartBoundaryItems) {
  PaperExample ex = MakePaperExample();
  ::fvl::Run run(&ex.spec.grammar);
  EXPECT_EQ(run.num_instances(), 1);
  EXPECT_EQ(run.num_items(), 5);  // S has 2 inputs + 3 outputs
  EXPECT_FALSE(run.IsComplete());
  EXPECT_EQ(run.Frontier().size(), 1u);
  for (int item : run.InputItems(0)) {
    EXPECT_TRUE(run.item(item).IsInitialInput());
    EXPECT_EQ(run.item(item).consumer_instance, 0);
  }
  for (int item : run.OutputItems(0)) {
    EXPECT_TRUE(run.item(item).IsFinalOutput());
  }
}

TEST(Run, ApplyCreatesChildrenAndItems) {
  PaperExample ex = MakePaperExample();
  ::fvl::Run run(&ex.spec.grammar);
  const DerivationStep& step = run.Apply(0, ex.p[0]);  // W1: 6 members, 8 edges
  EXPECT_EQ(run.num_instances(), 7);
  EXPECT_EQ(step.num_items, 8);
  EXPECT_EQ(run.num_items(), 13);
  EXPECT_TRUE(run.IsExpanded(0));
  // Frontier now holds the composite children A and C.
  EXPECT_EQ(run.Frontier().size(), 2u);
  // Creation endpoints of a new item: first edge of W1 is a.out0 -> A.in0.
  const DataItem& first = run.item(step.first_item);
  EXPECT_EQ(run.instance(first.producer_instance).type, ex.a);
  EXPECT_EQ(run.instance(first.consumer_instance).type, ex.A);
  EXPECT_EQ(first.producer_port, 0);
  EXPECT_EQ(first.consumer_port, 0);
}

TEST(Run, RewiringPreservesItemIdentity) {
  PaperExample ex = MakePaperExample();
  ::fvl::Run run(&ex.spec.grammar);
  int initial0 = run.InputItems(0)[0];
  const DerivationStep& step = run.Apply(0, ex.p[0]);
  // W1 maps S.in0 to a.in0: the child a received the same item id.
  int child_a = step.first_child + 0;
  EXPECT_EQ(run.InputItems(child_a)[0], initial0);
  // Creation record is untouched (still the start instance).
  EXPECT_EQ(run.item(initial0).consumer_instance, 0);
}

TEST(Run, CompleteRunHasOnlyAtomicInstances) {
  PaperExample ex = MakePaperExample();
  ::fvl::Run run(&ex.spec.grammar);
  CompleteRun(run);
  EXPECT_TRUE(run.IsComplete());
  for (int i = 0; i < run.num_instances(); ++i) {
    if (!run.IsExpanded(i)) {
      EXPECT_FALSE(ex.spec.grammar.is_composite(run.instance(i).type));
    }
  }
}

// Seeded random runs over the paper example (a two-module cycle with nested
// recursion) and BioAID (112 modules, up to 4 inputs and 7 outputs each).
constexpr uint64_t kLayoutSeeds[] = {1, 2, 3};
constexpr int kLayoutRunItems = 3000;

void ExpectPortSpans(const ::fvl::Run& run, int instance) {
  const Module& module = run.grammar().module(run.instance(instance).type);
  ASSERT_EQ(static_cast<int>(run.InputItems(instance).size()),
            module.num_inputs);
  ASSERT_EQ(static_cast<int>(run.OutputItems(instance).size()),
            module.num_outputs);
  for (int item : run.InputItems(instance)) {
    EXPECT_NE(item, -1) << "instance " << instance;
  }
  for (int item : run.OutputItems(instance)) {
    EXPECT_NE(item, -1) << "instance " << instance;
  }
}

// Port slots live in one flat array: every instance's spans have its
// module's port counts, the Apply that creates an instance wires all of its
// slots, and a complete run has no -1 slot anywhere.
TEST(Run, PortSpansHaveModulePortCountsAndEndFullyWired) {
  PaperExample ex = MakePaperExample();
  Workload bioaid = MakeBioAid();
  for (const Grammar* grammar : {&ex.spec.grammar, &bioaid.spec.grammar}) {
    for (uint64_t seed : kLayoutSeeds) {
      SCOPED_TRACE(::testing::Message() << grammar->num_modules()
                                        << " modules, seed " << seed);
      ::fvl::Run run = GenerateRandomRun(
          *grammar,
          RunGeneratorOptions{.target_items = kLayoutRunItems, .seed = seed},
          [](const ::fvl::Run& current, const DerivationStep* step) {
            if (step == nullptr) {
              ExpectPortSpans(current, current.start_instance());
              return;
            }
            for (int c = step->first_child; c < current.num_instances();
                 ++c) {
              ExpectPortSpans(current, c);
            }
          });
      ASSERT_TRUE(run.IsComplete());
      ASSERT_GE(run.num_items(), kLayoutRunItems);
      for (int i = 0; i < run.num_instances(); ++i) ExpectPortSpans(run, i);
    }
  }
}

// Parse-tree nodes store only the edge from their parent: every node's path
// is its parent's path plus that edge, its length is the node's depth, and
// the depth stays within Lemma 4's 2|Δ| bound.
TEST(CompressedParseTree, PathsChainThroughParentsWithinLemma4Bound) {
  PaperExample ex = MakePaperExample();
  Workload bioaid = MakeBioAid();
  for (const Grammar* grammar : {&ex.spec.grammar, &bioaid.spec.grammar}) {
    ProductionGraph pg(grammar);
    int composites = 0;
    for (ModuleId m = 0; m < grammar->num_modules(); ++m) {
      composites += grammar->is_composite(m) ? 1 : 0;
    }
    for (uint64_t seed : kLayoutSeeds) {
      SCOPED_TRACE(::testing::Message() << grammar->num_modules()
                                        << " modules, seed " << seed);
      CompressedParseTree tree(grammar, &pg);
      GenerateRandomRun(
          *grammar,
          RunGeneratorOptions{.target_items = kLayoutRunItems, .seed = seed},
          [&](const ::fvl::Run& current, const DerivationStep* step) {
            if (step == nullptr) {
              tree.OnStart(current);
            } else {
              tree.OnApply(current, *step);
            }
          });

      ASSERT_GT(tree.num_nodes(), kLayoutRunItems / 20);
      std::vector<int> children(tree.num_nodes(), 0);
      int deepest = 0;
      for (int id = 0; id < tree.num_nodes(); ++id) {
        const ParseNode& node = tree.node(id);
        ASSERT_EQ(node.id, id);
        std::vector<EdgeLabel> path = tree.Path(id);
        ASSERT_EQ(static_cast<int>(path.size()), node.depth) << "node " << id;
        deepest = std::max(deepest, node.depth);
        if (node.parent < 0) {
          EXPECT_EQ(id, tree.root());
          continue;
        }
        ASSERT_LT(node.parent, id);
        ++children[node.parent];
        std::vector<EdgeLabel> expected = tree.Path(node.parent);
        expected.push_back(node.edge);
        EXPECT_EQ(path, expected) << "node " << id;
      }
      for (int id = 0; id < tree.num_nodes(); ++id) {
        EXPECT_EQ(tree.node(id).num_children, children[id]) << "node " << id;
      }
      EXPECT_EQ(tree.max_depth(), deepest);
      EXPECT_GT(tree.max_depth(), 1);
      EXPECT_LE(tree.max_depth(), 2 * composites);
    }
  }
}

TEST(MinCompletionItems, PaperExampleCosts) {
  PaperExample ex = MakePaperExample();
  std::vector<int64_t> cost = MinCompletionItems(ex.spec.grammar);
  EXPECT_EQ(cost[ex.a], 0);
  EXPECT_EQ(cost[ex.D], 0);   // D -> W7 = [f], no internal edges
  EXPECT_EQ(cost[ex.E], 2);   // E -> W8 = [f, c], two edges
  EXPECT_EQ(cost[ex.C], 5 + 0 + 2);  // W5's 5 edges + D + E
  EXPECT_GT(cost[ex.S], 0);
}

TEST(RunGenerator, DeterministicForSeed) {
  PaperExample ex = MakePaperExample();
  RunGeneratorOptions options;
  options.target_items = 500;
  options.seed = 99;
  ::fvl::Run run1 = GenerateRandomRun(ex.spec.grammar, options);
  ::fvl::Run run2 = GenerateRandomRun(ex.spec.grammar, options);
  EXPECT_EQ(run1.num_items(), run2.num_items());
  EXPECT_EQ(run1.num_steps(), run2.num_steps());
  for (int s = 0; s < run1.num_steps(); ++s) {
    EXPECT_EQ(run1.step(s).production, run2.step(s).production);
    EXPECT_EQ(run1.step(s).instance, run2.step(s).instance);
  }
}

TEST(RunGenerator, ReachesTargetSize) {
  PaperExample ex = MakePaperExample();
  for (int target : {100, 1000, 4000}) {
    RunGeneratorOptions options;
    options.target_items = target;
    options.seed = 7;
    ::fvl::Run run = GenerateRandomRun(ex.spec.grammar, options);
    EXPECT_TRUE(run.IsComplete());
    EXPECT_GE(run.num_items(), target);
    EXPECT_LE(run.num_items(), target + 200);  // small completion tail
  }
}

TEST(RunGenerator, CallbackSeesEveryStepOnline) {
  PaperExample ex = MakePaperExample();
  RunGeneratorOptions options;
  options.target_items = 200;
  int calls = 0;
  int last_items = -1;
  ::fvl::Run run = GenerateRandomRun(
      ex.spec.grammar, options,
      [&](const ::fvl::Run& current, const DerivationStep* step) {
        if (step == nullptr) {
          EXPECT_EQ(calls, 0);
        } else {
          EXPECT_EQ(step->index, calls - 1);
        }
        EXPECT_GE(current.num_items(), last_items);
        last_items = current.num_items();
        ++calls;
      });
  EXPECT_EQ(calls, run.num_steps() + 1);
}

TEST(ViewProjection, DefaultViewSeesEverything) {
  PaperExample ex = MakePaperExample();
  ::fvl::Run run(&ex.spec.grammar);
  CompleteRun(run);
  auto view = *CompiledView::Compile(ex.spec.grammar, ex.default_view);
  RunProjection projection = ProjectRun(run, view);
  EXPECT_EQ(projection.num_visible_items, run.num_items());
  for (int s = 0; s < run.num_steps(); ++s) {
    EXPECT_TRUE(projection.step_visible[s]);
  }
  // Leaves are exactly the atomic instances.
  for (int leaf : projection.leaves) {
    EXPECT_FALSE(ex.spec.grammar.is_composite(run.instance(leaf).type));
  }
}

TEST(ViewProjection, GreyViewHidesCExpansions) {
  PaperExample ex = MakePaperExample();
  ::fvl::Run run(&ex.spec.grammar);
  CompleteRun(run);
  auto view = *CompiledView::Compile(ex.spec.grammar, ex.grey_view);
  RunProjection projection = ProjectRun(run, view);
  EXPECT_LT(projection.num_visible_items, run.num_items());
  for (int inst = 0; inst < run.num_instances(); ++inst) {
    ModuleId type = run.instance(inst).type;
    if (type == ex.D || type == ex.E || type == ex.f) {
      EXPECT_FALSE(projection.instance_visible[inst]);
    }
    // C instances are visible leaves.
    if (type == ex.C && projection.instance_visible[inst]) {
      bool is_leaf = false;
      for (int leaf : projection.leaves) is_leaf |= leaf == inst;
      EXPECT_TRUE(is_leaf);
    }
  }
}

TEST(ViewProjection, PartialRunLeavesIncludeUnexpandedComposites) {
  PaperExample ex = MakePaperExample();
  ::fvl::Run run(&ex.spec.grammar);
  run.Apply(0, ex.p[0]);  // only S expanded: A and C unexpanded leaves
  auto view = *CompiledView::Compile(ex.spec.grammar, ex.default_view);
  RunProjection projection = ProjectRun(run, view);
  int composite_leaves = 0;
  for (int leaf : projection.leaves) {
    if (ex.spec.grammar.is_composite(run.instance(leaf).type)) {
      ++composite_leaves;
    }
  }
  EXPECT_EQ(composite_leaves, 2);
}

TEST(ProvenanceOracle, SimpleChainGroundTruth) {
  PaperExample ex = MakePaperExample();
  ::fvl::Run run(&ex.spec.grammar);
  const DerivationStep& step = run.Apply(0, ex.p[0]);
  auto view = *CompiledView::Compile(ex.spec.grammar, ex.default_view);
  ProvenanceOracle oracle(run, view);

  // a.out0 -> A.in0 is item first_item; A.out0 -> C.in1 is item
  // first_item+3 (edge order in MakePaperExample); the first depends on the
  // initial input, the second depends on the first through λ*(A).
  int a_to_A = step.first_item + 0;
  int A_to_C = step.first_item + 3;
  int initial0 = run.InputItems(0)[0];
  EXPECT_TRUE(oracle.Depends(initial0, a_to_A));
  EXPECT_TRUE(oracle.Depends(a_to_A, A_to_C));
  EXPECT_FALSE(oracle.Depends(A_to_C, a_to_A));
  // Initial inputs depend on nothing; final outputs feed nothing.
  EXPECT_FALSE(oracle.Depends(a_to_A, initial0));
  int final0 = run.OutputItems(0)[0];
  EXPECT_FALSE(oracle.Depends(final0, a_to_A));
  // Self-dependency conventions (Algorithm 2): an intermediate item reaches
  // itself through its own data edge; Case I makes boundary items depend on
  // nothing / feed nothing.
  EXPECT_TRUE(oracle.Depends(a_to_A, a_to_A));
  EXPECT_FALSE(oracle.Depends(initial0, initial0));
  EXPECT_FALSE(oracle.Depends(final0, final0));
}

}  // namespace
}  // namespace fvl
