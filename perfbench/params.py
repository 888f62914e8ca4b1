"""Inputs and traffic parameters of every workload (one place, read by all)."""

#: the graphs every workload runs on: ACM at 3x (2 700 target papers, ~58k
#: edges), condensed at a paper ratio with meta-paths of up to K hops.
#: The dataset is fixed — draws of the generator differ in condense cost by
#: ~12% (CV over 16 draws), more than the bounds allow between runs — and
#: the workload seed drives the traffic: stream schedules and request ids.
DATASET = "acm"
SCALE = 3.0
RATIO = 0.024
MAX_HOPS = 3
#: generator seeds of the dataset's graphs; the served graph is the first
GRAPH_SEEDS = (0, 1, 2)

#: the served model: the ``python -m repro serve`` defaults
MODEL = "heterosgc"
HIDDEN_DIM = 32
EPOCHS = 80
RECONDENSE_THRESHOLD = 0.05
CACHE_SIZE = 4096

#: stream-churn: one stream per graph, each with its own schedule; churn
#: is the ``stream`` CLI default (0.2% of every relation per step)
STREAM_GRAPHS = 2
STREAM_CHURN = 0.002
STREAM_RELATIONS = None

#: serve-read: open-loop ladder of (requests/s, share of the run's seconds),
#: stopped at the first rate from the headline rate up that builds a backlog
READ_LADDER = ((100, 0.15), (200, 0.15), (400, 0.3), (800, 0.2), (1600, 0.2))
READ_HEADLINE_RATE = 400
READ_CONNECTIONS = 2

#: serve-write: replicated tier, reads on one connection, deltas on another.
#: The delta stream is fixed like the dataset: how many deltas retrain the
#: model depends on the schedule (2 to 9 of 16 over schedule seeds 0-3 and
#: 20-26), which makes the ack median jump between its two modes across
#: seeds.  The workload seed drives the read ids.
WRITE_WORKERS = 1
WRITE_READ_RATE = 200
WRITE_CHURN = 0.00025
WRITE_RELATIONS = ("paper-term",)
WRITE_SCHEDULE_SEED = 0
DELTA_CADENCE_S = 1.0

#: latency limit a predict must meet to count as good
LIMIT_MS = 10.0
#: percentile the limit applies to when choosing the sustainable rate
LIMIT_PERCENTILE = 99.0
#: a predict that takes longer than this counts as failed
REQUEST_TIMEOUT_S = 2.0
#: a delta that takes longer than this counts as failed
DELTA_TIMEOUT_S = 30.0
#: server boots per serve-* run (setup_s is their median)
SERVE_BOOTS = 2


def schedule_seed(seed: int, stream: int) -> int:
    """Delta-schedule seed of the ``stream``-th stream of a run with ``seed``."""
    return seed * STREAM_GRAPHS + stream
