#include "fvl/core/parse_tree.h"

#include "fvl/util/check.h"

namespace fvl {

CompressedParseTree::CompressedParseTree(const Grammar* grammar,
                                         const ProductionGraph* pg)
    : grammar_(grammar), pg_(pg) {
  FVL_CHECK(pg_->strictly_linear() &&
            "compressed parse trees require a strictly linear-recursive "
            "grammar");
}

int CompressedParseTree::NewNode(ParseNode node) {
  node.id = num_nodes();
  if (node.parent >= 0) {
    node.depth = nodes_[node.parent].depth + 1;
    ++nodes_[node.parent].num_children;
  }
  max_depth_ = std::max(max_depth_, node.depth);
  nodes_.push_back(node);
  return node.id;
}

std::vector<EdgeLabel> CompressedParseTree::Path(int id) const {
  std::vector<EdgeLabel> path;
  PathInto(id, &path);
  return path;
}

void CompressedParseTree::PathInto(int id,
                                   std::vector<EdgeLabel>* path) const {
  path->resize(nodes_[id].depth);
  for (int n = id, d = nodes_[id].depth; d > 0; n = nodes_[n].parent) {
    (*path)[--d] = nodes_[n].edge;
  }
}

void CompressedParseTree::OnStart(const Run& run) {
  FVL_CHECK(nodes_.empty());
  node_of_instance_.assign(1, -1);
  ModuleId start_module = run.grammar().start();

  ParseNode root_module;
  root_module.kind = ParseNode::Kind::kModule;
  root_module.instance = run.start_instance();
  if (pg_->IsRecursive(start_module)) {
    // The start module lies on a cycle: the root is a recursive node and S:1
    // is its first child.
    ParseNode rec;
    rec.kind = ParseNode::Kind::kRecursive;
    rec.cycle = pg_->CycleOf(start_module);
    rec.start = pg_->CycleStartIndex(start_module);
    root_module.parent = NewNode(rec);
    root_module.edge = EdgeLabel::Rec(rec.cycle, rec.start, 1);
  }
  node_of_instance_[run.start_instance()] = NewNode(root_module);
}

void CompressedParseTree::OnApply(const Run& run, const DerivationStep& step) {
  const Grammar& g = run.grammar();
  const Production& p = g.production(step.production);
  ModuleId lhs = p.lhs;

  int u = node_of_instance_[step.instance];
  FVL_CHECK(u >= 0);
  node_of_instance_.resize(run.num_instances(), -1);

  for (int pos = 0; pos < p.rhs.num_members(); ++pos) {
    int child_instance = step.first_child + pos;
    ModuleId member = p.rhs.members[pos];

    ParseNode child;
    child.kind = ParseNode::Kind::kModule;
    child.instance = child_instance;

    if (!pg_->IsRecursive(member)) {
      // Case 1: plain member under the module node.
      child.parent = u;
      child.edge = EdgeLabel::Prod(step.production, pos);
    } else if (pg_->IsRecursive(lhs) &&
               pg_->CycleOf(member) == pg_->CycleOf(lhs)) {
      // Case 2a: the member continues the lhs's own recursion — it becomes
      // the next sibling of u under u's recursive parent node.
      int rec = nodes_[u].parent;
      FVL_CHECK(rec >= 0 && nodes_[rec].kind == ParseNode::Kind::kRecursive);
      const EdgeLabel& u_edge = nodes_[u].edge;
      FVL_CHECK(u_edge.kind == EdgeLabel::Kind::kRecursion);
      child.parent = rec;
      child.edge =
          EdgeLabel::Rec(u_edge.cycle, u_edge.start, u_edge.iteration + 1);
    } else {
      // Case 2b: the member starts a new recursion — create a recursive node
      // under u and put the member as its first child.
      ParseNode rec;
      rec.kind = ParseNode::Kind::kRecursive;
      rec.cycle = pg_->CycleOf(member);
      rec.start = pg_->CycleStartIndex(member);
      rec.parent = u;
      rec.edge = EdgeLabel::Prod(step.production, pos);
      child.parent = NewNode(rec);
      child.edge = EdgeLabel::Rec(rec.cycle, rec.start, 1);
    }
    node_of_instance_[child_instance] = NewNode(child);
  }
}

}  // namespace fvl
