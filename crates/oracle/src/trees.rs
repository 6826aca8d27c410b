//! Trees to test on: the suites' one random-tree generator, and every
//! ordered tree of a given size.

use ncq_xml::Document;
use rand::rngs::StdRng;
use rand::RngExt;
use std::ops::Range;

/// The generator's word pool: five words and one two-word phrase, so hit
/// sets overlap between queries and phrases have something to match.
pub const WORDS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "twin peaks", "omega"];

/// What [`random_tree`] draws besides the shape.
#[derive(Debug, Clone)]
pub struct TreeDraw {
    /// Elements below the root.
    pub elements: Range<usize>,
    /// About one element in three gets a text leaf of two pool words.
    pub text: bool,
    /// About one element in four gets a `key` attribute (one pool word).
    pub keys: bool,
}

impl TreeDraw {
    /// Bare elements, 1..120 below the root.
    pub const TAGS: TreeDraw = TreeDraw {
        elements: 1..120,
        text: false,
        keys: false,
    };
    /// Text leaves, 1..150 elements below the root.
    pub const TEXT: TreeDraw = TreeDraw {
        elements: 1..150,
        text: true,
        keys: false,
    };
    /// Text leaves and `key` attributes, 1..150 elements below the root.
    pub const TEXT_AND_KEYS: TreeDraw = TreeDraw {
        elements: 1..150,
        text: true,
        keys: true,
    };
}

/// A random tree: element `i + 1` hangs under a random earlier node, and
/// tags cycle through `a`…`e` so path summaries stay non-trivial. The
/// draws are a pure function of `rng`'s state, so a seed fixes the tree.
pub fn random_tree(rng: &mut StdRng, draw: &TreeDraw) -> Document {
    const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
    let mut doc = Document::new("root");
    let mut nodes = vec![doc.root()];
    let n = rng.random_range(draw.elements.clone());
    for i in 0..n {
        let parent = nodes[rng.random_range(0..nodes.len())];
        let node = doc.add_element(parent, TAGS[i % TAGS.len()]);
        if draw.text && rng.random_range(0..3usize) == 0 {
            let w1 = WORDS[rng.random_range(0..WORDS.len())];
            let w2 = WORDS[rng.random_range(0..WORDS.len())];
            doc.add_text(node, format!("{w1} {w2}"));
        }
        if draw.keys && rng.random_range(0..4usize) == 0 {
            doc.set_attribute(node, "key", WORDS[rng.random_range(0..WORDS.len())]);
        }
        nodes.push(node);
    }
    doc
}

/// Every ordered tree of `n ≥ 1` nodes, as parent arrays in preorder:
/// node 0 is the root (its entry is 0) and every other node's parent
/// precedes it. There are Catalan(n − 1) of them: 1, 1, 2, 5, 14, 42,
/// 132 for n = 1 … 7.
pub fn ordered_trees(n: usize) -> Vec<Vec<usize>> {
    assert!(n >= 1, "a tree has a root");
    // In preorder the next node hangs under some node of the current
    // rightmost path, and every such choice is a different tree.
    fn grow(parents: &mut Vec<usize>, path: &mut Vec<usize>, n: usize, out: &mut Vec<Vec<usize>>) {
        if parents.len() == n {
            out.push(parents.clone());
            return;
        }
        for k in 0..path.len() {
            let above = path.split_off(k + 1);
            let node = parents.len();
            parents.push(path[k]);
            path.push(node);
            grow(parents, path, n, out);
            path.pop();
            parents.pop();
            path.extend(above);
        }
    }
    let mut out = Vec::new();
    grow(&mut vec![0], &mut vec![0], n, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ordered_trees_are_counted_by_catalan_numbers() {
        let counts: Vec<usize> = (1..=7).map(|n| ordered_trees(n).len()).collect();
        assert_eq!(counts, [1, 1, 2, 5, 14, 42, 132]);
        for tree in ordered_trees(6) {
            assert!(tree[1..].iter().enumerate().all(|(i, &p)| p <= i));
        }
    }

    #[test]
    fn a_seed_fixes_the_tree() {
        for draw in [TreeDraw::TAGS, TreeDraw::TEXT, TreeDraw::TEXT_AND_KEYS] {
            let xml = |seed| {
                let doc = random_tree(&mut StdRng::seed_from_u64(seed), &draw);
                ncq_xml::write_document(&doc, ncq_xml::WriteOptions::default())
            };
            assert_eq!(xml(7), xml(7));
            assert_ne!(xml(7), xml(8));
        }
    }
}
