//! Tweets → user-interaction graph.
//!
//! "User interaction graphs are created by adding an edge into the graph
//! for every mention (denoted by the prefix @) of a user by the tweet
//! author. Duplicate user interactions are thrown out so that only
//! unique user-interactions are represented in the graph." (§III-B)
//!
//! Ingest is one pass over the corpus: the borrowed mention scanner
//! ([`iter_mentions`]) feeds the arena interner ([`VertexLabels`]), and
//! every non-self `(author, mention)` arc lands in one flat edge list in
//! tweet order, with one end offset per tweet.  The directed graph is
//! built from that list; the undirected graph is symmetrized from the
//! directed one ([`CsrGraph::symmetrize`]) rather than built by a second
//! sort; and the response count probes the directed graph.

use crate::model::Tweet;
use crate::parse::iter_mentions;
use graphct_core::builder::GraphBuilder;
use graphct_core::{CsrGraph, EdgeList, GraphError, VertexLabels};

/// The mention graph plus ingest statistics — the quantities of
/// Table III.
#[derive(Debug, Clone)]
pub struct TweetGraph {
    /// Undirected simple interaction graph (duplicates and self-loops
    /// removed) — the representation all §III metrics run on.
    pub undirected: CsrGraph,
    /// Directed mention graph (deduplicated arcs, self-loops removed) —
    /// used by the mutual-mention conversation filter.
    pub directed: CsrGraph,
    /// Vertex ↔ screen-name directory.
    pub labels: VertexLabels,
    /// Tweets ingested.
    pub num_tweets: usize,
    /// Tweets containing at least one (non-self) mention.
    pub tweets_with_mentions: usize,
    /// Tweets that are part of a reciprocated interaction: the author
    /// mentions a user who (somewhere in the corpus) mentions the author
    /// back — Table III's "tweets with responses".
    pub tweets_with_responses: usize,
    /// Tweets whose author mentions themselves (§III-C's echo-chamber
    /// artifact).
    pub self_reference_tweets: usize,
}

/// Ingest a tweet corpus into interaction graphs.
pub fn build_tweet_graph(tweets: &[Tweet]) -> Result<TweetGraph, GraphError> {
    let mut labels = VertexLabels::new();
    // Non-self (author, mentioned) arcs in tweet order; tweet `i` owns
    // `arcs[tweet_ends[i - 1] .. tweet_ends[i]]`.
    let mut arcs = EdgeList::new();
    let mut tweet_ends = Vec::with_capacity(tweets.len());
    let mut self_reference_tweets = 0usize;

    for t in tweets {
        let author = labels.intern(&t.author);
        let mut has_self = false;
        for m in iter_mentions(&t.text) {
            let target = labels.intern(m);
            if target == author {
                has_self = true;
            } else {
                arcs.push(author, target);
            }
        }
        self_reference_tweets += has_self as usize;
        tweet_ends.push(arcs.len());
    }

    let n = labels.len();
    let directed = GraphBuilder::directed().num_vertices(n).build(&arcs)?;
    let undirected = directed.symmetrize();

    // A tweet "has a response" when one of its author→target arcs is
    // reciprocated by a target→author arc anywhere in the corpus.
    let arcs = arcs.as_slice();
    let mut tweets_with_mentions = 0usize;
    let mut tweets_with_responses = 0usize;
    let mut start = 0;
    for &end in &tweet_ends {
        let tweet = &arcs[start..end];
        tweets_with_mentions += !tweet.is_empty() as usize;
        tweets_with_responses += tweet.iter().any(|&(a, m)| directed.has_edge(m, a)) as usize;
        start = end;
    }

    Ok(TweetGraph {
        undirected,
        directed,
        labels,
        num_tweets: tweets.len(),
        tweets_with_mentions,
        tweets_with_responses,
        self_reference_tweets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::mentions;
    use crate::profiles::DatasetProfile;
    use crate::stream::generate_stream;
    use std::collections::{BTreeSet, HashMap};

    fn tw(author: &str, text: &str) -> Tweet {
        Tweet::new(author, text)
    }

    /// The two-build ingest the one-pass path replaced, kept as its
    /// oracle: `String`-keyed interning, every mention arc (self-loops
    /// included) through two `GraphBuilder` builds, and responses from a
    /// set of all arcs.
    fn reference_build(tweets: &[Tweet]) -> (TweetGraph, Vec<String>) {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut names: Vec<String> = Vec::new();
        let mut intern = |name: &str| {
            *ids.entry(name.to_owned()).or_insert_with(|| {
                names.push(name.to_owned());
                names.len() as u32 - 1
            })
        };
        let mut arcs = EdgeList::new();
        let mut tweet_arcs = Vec::new();
        let (mut with_mentions, mut self_refs) = (0, 0);
        for (i, t) in tweets.iter().enumerate() {
            let author = intern(&t.author);
            let targets: Vec<u32> = mentions(&t.text).into_iter().map(&mut intern).collect();
            with_mentions += targets.iter().any(|&m| m != author) as usize;
            self_refs += targets.contains(&author) as usize;
            for m in targets {
                arcs.push(author, m);
                if m != author {
                    tweet_arcs.push((i, author, m));
                }
            }
        }
        let n = names.len();
        let directed = GraphBuilder::directed()
            .num_vertices(n)
            .build(&arcs)
            .unwrap();
        let undirected = GraphBuilder::undirected()
            .num_vertices(n)
            .build(&arcs)
            .unwrap();
        let arc_set: BTreeSet<(u32, u32)> = directed.iter_arcs().collect();
        let responding: BTreeSet<usize> = tweet_arcs
            .iter()
            .filter(|&&(_, a, m)| arc_set.contains(&(m, a)))
            .map(|&(i, _, _)| i)
            .collect();
        let graph = TweetGraph {
            undirected,
            directed,
            labels: VertexLabels::new(),
            num_tweets: tweets.len(),
            tweets_with_mentions: with_mentions,
            tweets_with_responses: responding.len(),
            self_reference_tweets: self_refs,
        };
        (graph, names)
    }

    /// Assert the one-pass ingest equals the reference bit for bit.
    fn assert_matches_reference(tweets: &[Tweet]) {
        let g = build_tweet_graph(tweets).unwrap();
        let (r, names) = reference_build(tweets);
        assert_eq!(g.directed.offsets(), r.directed.offsets());
        assert_eq!(g.directed.targets(), r.directed.targets());
        assert!(g.directed.is_directed());
        assert_eq!(g.undirected.offsets(), r.undirected.offsets());
        assert_eq!(g.undirected.targets(), r.undirected.targets());
        assert!(!g.undirected.is_directed());
        assert_eq!(
            g.undirected.sorted_simple_hint(),
            r.undirected.sorted_simple_hint()
        );
        assert!(g
            .labels
            .iter()
            .map(|(_, n)| n)
            .eq(names.iter().map(String::as_str)));
        assert_eq!(g.num_tweets, r.num_tweets);
        assert_eq!(g.tweets_with_mentions, r.tweets_with_mentions);
        assert_eq!(g.tweets_with_responses, r.tweets_with_responses);
        assert_eq!(g.self_reference_tweets, r.self_reference_tweets);
    }

    #[test]
    fn one_pass_matches_reference_on_generated_corpora() {
        let profiles = [
            DatasetProfile::h1n1().scaled(0.05),
            DatasetProfile::atlflood(),
            DatasetProfile::sep1().scaled(0.005),
        ];
        for p in &profiles {
            for seed in [1, 2, 3, 42, 1009] {
                let (tweets, _) = generate_stream(&p.config, seed);
                assert_matches_reference(&tweets);
            }
        }
    }

    #[test]
    fn one_pass_matches_reference_on_hand_cases() {
        assert_matches_reference(&[]);
        // Self-only tweets: vertices but no arcs.
        assert_matches_reference(&[tw("a", "@a"), tw("b", "@b @b hi"), tw("a", "@a again")]);
        // Repeated mentions in one tweet, and a tweet mixing self and real.
        assert_matches_reference(&[
            tw("a", "@b @b @c @b"),
            tw("c", "@a @c @a"),
            tw("b", "no mentions"),
        ]);
        // Non-ASCII authors and text around the handles.
        assert_matches_reference(&[
            tw("josé", "café @zoë_ ☂ @ana #lluvia"),
            tw("ana", "中文@ana @josé 🌊@x @x"),
            tw("x", "é@ana @ana"),
        ]);
    }

    /// Table III quantities recorded from the two-build ingest.
    #[test]
    fn pinned_counts() {
        let cases = [
            (
                DatasetProfile::atlflood(),
                [2956, 2285, 2775, 2834, 2926, 296, 30],
            ),
            (
                DatasetProfile::sep1().scaled(0.05),
                [51253, 46734, 47339, 51380, 50853, 9201, 400],
            ),
        ];
        for (p, want) in cases {
            let (tweets, _) = generate_stream(&p.config, 42);
            let g = build_tweet_graph(&tweets).unwrap();
            let got = [
                g.num_tweets,
                g.labels.len(),
                g.undirected.num_edges(),
                g.directed.num_arcs(),
                g.tweets_with_mentions,
                g.tweets_with_responses,
                g.self_reference_tweets,
            ];
            assert_eq!(got, want, "{}", p.name);
        }
    }

    #[test]
    fn basic_ingest() {
        let tweets = vec![
            tw("alice", "hello @bob"),
            tw("bob", "hey @alice, and @carol too"),
            tw("carol", "quiet day"),
        ];
        let g = build_tweet_graph(&tweets).unwrap();
        assert_eq!(g.num_tweets, 3);
        assert_eq!(g.tweets_with_mentions, 2);
        assert_eq!(g.labels.len(), 3);
        // Undirected edges: alice-bob (deduped), bob-carol.
        assert_eq!(g.undirected.num_edges(), 2);
        // Directed arcs: alice→bob, bob→alice, bob→carol.
        assert_eq!(g.directed.num_arcs(), 3);
    }

    #[test]
    fn duplicates_thrown_out() {
        let tweets = vec![
            tw("a", "@b once"),
            tw("a", "@b twice"),
            tw("a", "@b thrice"),
        ];
        let g = build_tweet_graph(&tweets).unwrap();
        assert_eq!(g.undirected.num_edges(), 1);
        assert_eq!(g.directed.num_arcs(), 1);
    }

    #[test]
    fn responses_counted_both_ways() {
        let tweets = vec![
            tw("a", "@b question?"),
            tw("b", "@a answer!"),
            tw("c", "@a unanswered"),
        ];
        let g = build_tweet_graph(&tweets).unwrap();
        // a↔b reciprocated: both their tweets count; c's does not.
        assert_eq!(g.tweets_with_responses, 2);
    }

    #[test]
    fn self_references_tracked_but_not_edges() {
        let tweets = vec![tw("a", "@a note to self"), tw("a", "@b real mention")];
        let g = build_tweet_graph(&tweets).unwrap();
        assert_eq!(g.self_reference_tweets, 1);
        assert_eq!(g.undirected.count_self_loops(), 0);
        assert_eq!(g.undirected.num_edges(), 1);
    }

    #[test]
    fn mention_only_users_become_vertices() {
        let tweets = vec![tw("a", "@ghost are you there")];
        let g = build_tweet_graph(&tweets).unwrap();
        assert_eq!(g.labels.len(), 2);
        assert_eq!(g.labels.get("ghost"), Some(1));
    }

    #[test]
    fn empty_corpus() {
        let g = build_tweet_graph(&[]).unwrap();
        assert_eq!(g.num_tweets, 0);
        assert_eq!(g.undirected.num_vertices(), 0);
        assert_eq!(g.tweets_with_responses, 0);
    }

    #[test]
    fn generated_stream_builds_consistent_graph() {
        let cfg = crate::stream::StreamConfig {
            audience_size: 200,
            broadcast_tweets: 400,
            pair_exchanges: 50,
            conversation_groups: 4,
            conversation_size: (3, 5),
            ..Default::default()
        };
        let (tweets, _pool) = crate::stream::generate_stream(&cfg, 11);
        let g = build_tweet_graph(&tweets).unwrap();
        assert!(g.undirected.is_symmetric());
        assert_eq!(g.num_tweets, tweets.len());
        assert!(g.tweets_with_responses > 0, "conversations must respond");
        assert!(g.self_reference_tweets >= cfg.self_reference_tweets);
        // Vertices = interned users; every edge endpoint has a label.
        assert_eq!(g.undirected.num_vertices(), g.labels.len());
    }
}
