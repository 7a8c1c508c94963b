// Compressed parse trees (Defs. 17–18), built dynamically (§4.2.3).
//
// The basic parse tree nests one node per production application; linear
// recursions would make its depth proportional to the run. The compressed
// tree inserts one *recursive node* per unfolded cycle of P(G) and flattens
// the chain of nested cycle members into its children, so the depth is
// bounded by 2·|Δ| (Lemma 4).
//
// Construction is strictly online: CompressedParseTree observes Run events
// (OnStart / OnApply) and fixes every node's edge-label path when the node
// is created; paths are never revisited, which is what makes the data labels
// of RunLabeler dynamic in the sense of Def. 10. A node stores only the
// label of the edge from its parent: its path is its parent's path plus that
// edge, rebuilt on demand by walking at most 2·|Δ| parents.
//
// Only strictly linear-recursive grammars are supported (Thm. 8's premise).

#ifndef FVL_CORE_PARSE_TREE_H_
#define FVL_CORE_PARSE_TREE_H_

#include <vector>

#include "fvl/core/data_label.h"
#include "fvl/run/run.h"
#include "fvl/workflow/production_graph.h"

namespace fvl {

struct ParseNode {
  enum class Kind : uint8_t { kModule, kRecursive };
  int id = -1;
  Kind kind = Kind::kModule;
  int instance = -1;            // module nodes: the run instance
  int cycle = -1;               // recursive nodes: the paper's s
  int start = -1;               // recursive nodes: the paper's t
  int parent = -1;              // -1 for the root
  int num_children = 0;
  int depth = 0;                // edges from the root
  // Label of the edge from `parent` (unset for the root): the node's path is
  // its parent's path plus this edge (CompressedParseTree::Path).
  EdgeLabel edge;
};

class CompressedParseTree {
 public:
  CompressedParseTree(const Grammar* grammar, const ProductionGraph* pg);

  // Must be called once, before any OnApply, with a fresh run.
  void OnStart(const Run& run);
  // Must be called after each Run::Apply, in order.
  void OnApply(const Run& run, const DerivationStep& step);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const ParseNode& node(int id) const { return nodes_[id]; }
  int root() const { return 0; }
  int NodeOfInstance(int instance) const { return node_of_instance_[instance]; }
  // Edge labels from the root to node `id` (empty for the root); its size is
  // node(id).depth. PathInto overwrites *path, reusing its capacity.
  std::vector<EdgeLabel> Path(int id) const;
  void PathInto(int id, std::vector<EdgeLabel>* path) const;
  // Maximum node depth seen so far (number of edges from the root); bounded
  // by 2|Δ| per Lemma 4.
  int max_depth() const { return max_depth_; }

 private:
  // Appends `node` as a child of node.parent (reached over node.edge) and
  // returns its id.
  int NewNode(ParseNode node);

  const Grammar* grammar_;
  const ProductionGraph* pg_;
  std::vector<ParseNode> nodes_;
  std::vector<int> node_of_instance_;
  int max_depth_ = 0;
};

}  // namespace fvl

#endif  // FVL_CORE_PARSE_TREE_H_
