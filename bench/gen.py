"""Seeded NSL-KDD-shaped inputs for the benchmark; no download needed.

Rows follow the KDDTrain+ column order: 41 features, the attack name and the
difficulty score (43 fields). The categorical columns use exactly 3 protocol,
70 service and 11 flag values, so one-hot encoding gives the paper's 122
columns. Labels are real NSL-KDD attack names across all five categories, and
attack rows get per-category feature shifts so the binary task is learnable.

This module does not import lunet: it is the independent reference the
benchmark's output checks compare against.
"""

from __future__ import annotations

import numpy as np

PROTOCOLS = ("icmp", "tcp", "udp")
SERVICES = tuple(
    "aol auth bgp courier csnet_ns ctf daytime discard domain domain_u echo eco_i "
    "ecr_i efs exec finger ftp ftp_data gopher harvest hostnames http http_2784 "
    "http_443 http_8001 imap4 IRC iso_tsap klogin kshell ldap link login mtp name "
    "netbios_dgm netbios_ns netbios_ssn netstat nnsp nntp ntp_u other pm_dump pop_2 "
    "pop_3 printer private red_i remote_job rje shell smtp sql_net ssh sunrpc supdup "
    "systat telnet tftp_u tim_i time urh_i urp_i uucp uucp_path vmnet whois X11 "
    "Z39_50".split())
FLAGS = ("OTH", "REJ", "RSTO", "RSTOS0", "RSTR", "S0", "S1", "S2", "S3", "SF", "SH")
CATEGORICAL = {"protocol_type": PROTOCOLS, "service": SERVICES, "flag": FLAGS}

FEATURES = (
    "duration protocol_type service flag src_bytes dst_bytes land wrong_fragment "
    "urgent hot num_failed_logins logged_in num_compromised root_shell su_attempted "
    "num_root num_file_creations num_shells num_access_files num_outbound_cmds "
    "is_host_login is_guest_login count srv_count serror_rate srv_serror_rate "
    "rerror_rate srv_rerror_rate same_srv_rate diff_srv_rate srv_diff_host_rate "
    "dst_host_count dst_host_srv_count dst_host_same_srv_rate dst_host_diff_srv_rate "
    "dst_host_same_src_port_rate dst_host_srv_diff_host_rate dst_host_serror_rate "
    "dst_host_srv_serror_rate dst_host_rerror_rate dst_host_srv_rerror_rate".split())
NUMERIC = tuple(f for f in FEATURES if f not in CATEGORICAL)
_BINARY = {"land", "logged_in", "root_shell", "su_attempted", "is_host_login",
           "is_guest_login"}
_BYTES = {"src_bytes", "dst_bytes"}
_CONSTANT = {"num_outbound_cmds"}  # all zero in the real files too

CATEGORIES = ("Normal", "DoS", "Probe", "R2L", "U2R")
# roughly the KDDTrain+ category mix
_CATEGORY_WEIGHTS = (0.53, 0.36, 0.09, 0.018, 0.002)
ATTACKS = {
    "Normal": ("normal",),
    "DoS": ("back", "land", "neptune", "pod", "smurf", "teardrop", "apache2",
            "udpstorm", "processtable", "worm", "mailbomb"),
    "Probe": ("satan", "ipsweep", "nmap", "portsweep", "mscan", "saint"),
    "R2L": ("guess_passwd", "ftp_write", "imap", "phf", "multihop", "warezmaster",
            "warezclient", "spy", "xlock", "xsnoop", "snmpguess", "snmpgetattack",
            "httptunnel", "sendmail", "named"),
    "U2R": ("buffer_overflow", "loadmodule", "rootkit", "perl", "sqlattack",
            "xterm", "ps"),
}

# KDDTrain+ and KDDTest+ row counts
TRAIN_ROWS, TEST_ROWS = 125_973, 22_544


def encoded_columns() -> list[str]:
    """The 122 column names one-hot encoding gives, in lexicographic vocab order."""
    out = []
    for name in FEATURES:
        if name in CATEGORICAL:
            out.extend(f"{name}={v}" for v in sorted(CATEGORICAL[name]))
        else:
            out.append(name)
    return out


def make_rows(n: int, seed: int, part: int = 0) -> dict:
    """`n` rows as arrays: numeric values (exactly what the CSV text parses
    back to), categorical value indices, category index and attack name.

    `seed` fixes the traffic distribution (feature shifts, value mixes);
    `part` picks an independent sample from it, as KDDTest+ is to KDDTrain+.
    """
    if n < len(SERVICES):
        raise ValueError(f"need at least {len(SERVICES)} rows to cover every service")
    world = np.random.default_rng(seed)
    # per-category shift of a few latent columns makes attacks separable
    shift = np.zeros((len(CATEGORIES), len(NUMERIC)))
    for c in range(1, len(CATEGORIES)):
        cols = world.choice(len(NUMERIC), size=12, replace=False)
        shift[c, cols] = world.choice((-1.0, 1.0), size=12) * world.uniform(3.0, 4.0, size=12)
    # each category has its own value mix, as neptune favours S0 and private
    mixes = {name: world.dirichlet(np.full(len(vocab), 0.5), size=len(CATEGORIES))
             for name, vocab in CATEGORICAL.items()}

    rng = np.random.default_rng([seed, part])
    category = rng.choice(len(CATEGORIES), size=n, p=_CATEGORY_WEIGHTS)
    names = np.empty(n, dtype=object)
    for c, cname in enumerate(CATEGORIES):
        idx = np.flatnonzero(category == c)
        pool = ATTACKS[cname]
        names[idx] = [pool[i] for i in rng.integers(0, len(pool), size=len(idx))]
    z = rng.standard_normal((n, len(NUMERIC))) + shift[category]
    numeric = np.empty_like(z)
    for j, name in enumerate(NUMERIC):
        col = z[:, j]
        if name in _CONSTANT:
            numeric[:, j] = 0.0
        elif name in _BINARY:
            numeric[:, j] = (col > 0.8).astype(np.float64)
        elif "rate" in name:
            numeric[:, j] = np.round(1.0 / (1.0 + np.exp(-col)), 2)
        elif name in _BYTES:
            numeric[:, j] = np.round(np.exp(1.5 * col + 5.0))
        else:
            numeric[:, j] = np.minimum(np.floor(2.0 * np.exp(col)), 255.0)

    cats = {}
    for name, vocab in CATEGORICAL.items():
        idx = np.empty(n, dtype=np.int64)
        for c in range(len(CATEGORIES)):
            rows_c = np.flatnonzero(category == c)
            idx[rows_c] = rng.choice(len(vocab), size=len(rows_c), p=mixes[name][c])
        # the first rows cover every value, so a file encodes to all 122 columns
        idx[:len(SERVICES)] = np.arange(len(SERVICES)) % len(vocab)
        cats[name] = idx
    difficulty = rng.integers(0, 22, size=n)
    return {"numeric": numeric, "categorical": cats, "category": category,
            "names": names, "difficulty": difficulty}


# rates carry two decimals; repr(k / 100) parses back to the same double
_RATE_TEXT = np.array([repr(k / 100) for k in range(101)], dtype=object)


def write_csv(path, rows: dict, chunk: int = 8192) -> int:
    """Write header-less KDD rows; returns the bytes written."""
    numeric = rows["numeric"]
    n = numeric.shape[0]
    written = 0
    with open(path, "wb") as fh:
        for lo in range(0, n, chunk):
            sl = slice(lo, min(lo + chunk, n))
            cols = []
            for name in FEATURES:
                if name in CATEGORICAL:
                    vocab = np.asarray(CATEGORICAL[name], dtype=object)
                    cols.append(vocab[rows["categorical"][name][sl]].tolist())
                    continue
                v = numeric[sl, NUMERIC.index(name)]
                if "rate" in name:
                    cols.append(_RATE_TEXT[np.rint(v * 100).astype(np.int64)].tolist())
                else:
                    cols.append(list(map(str, v.astype(np.int64).tolist())))
            cols.append(rows["names"][sl].tolist())
            cols.append(list(map(str, rows["difficulty"][sl].tolist())))
            data = ("\n".join(map(",".join, zip(*cols))) + "\n").encode("utf-8")
            fh.write(data)
            written += len(data)
    return written


def binary_labels(rows: dict) -> np.ndarray:
    """0 for normal traffic, 1 for any attack."""
    return (rows["category"] != 0).astype(np.int64)


def encode(rows: dict) -> np.ndarray:
    """One-hot encode over the full vocabularies, in `encoded_columns()` order."""
    n = rows["numeric"].shape[0]
    blocks = []
    for name in FEATURES:
        if name in CATEGORICAL:
            vocab = CATEGORICAL[name]
            order = np.argsort(np.argsort(np.asarray(vocab, dtype=object)))
            block = np.zeros((n, len(vocab)))
            block[np.arange(n), order[rows["categorical"][name]]] = 1.0
            blocks.append(block)
        else:
            blocks.append(rows["numeric"][:, NUMERIC.index(name), None])
    return np.hstack(blocks)


def fit_standardization(features: np.ndarray):
    """Per-column population mean and std."""
    return features.mean(axis=0), features.std(axis=0)


def standardize(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """z-score with the given statistics; constant columns become exactly zero."""
    const = std < 1e-12
    out = (features - mean) / np.where(const, 1.0, std)
    out[:, const] = 0.0
    return out
