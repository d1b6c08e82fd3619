"""Score records and score files built by hand, shared by the tests."""

from pairsieve.scoring import SCORE_HEADER, ScoreRecord, format_record


def rec(pair_id, combined):
    """An unflagged record whose only varying fields are its id and combined,
    which is its adq (dom is 1)."""
    return ScoreRecord(
        pair_id=pair_id,
        h_fwd=1.0,
        h_rev=1.0,
        h_in=1.0,
        h_out=1.0,
        adq=combined,
        dom=1.0,
        combined=combined,
    )


def write_score_file(records, path):
    """Write records as a score file, header first, the way score does;
    returns the record count."""
    lines = [format_record(record) + "\n" for record in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SCORE_HEADER) + "\n")
        fh.writelines(lines)
    return len(lines)
