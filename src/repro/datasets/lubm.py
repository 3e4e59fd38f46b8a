"""LUBM-like university knowledge-graph generator.

LUBM (Guo, Pan, Heflin — J. Web Semantics 2005) is itself a synthetic
benchmark, so this module is a *re-implementation of its generator* rather
than an approximation of a real dump: universities contain departments,
departments employ faculty of three ranks plus lecturers, faculty teach
courses and hold degrees from other universities, students take courses
and graduate students have advisors, and everyone involved publishes.

The cardinality ratios follow the published LUBM profile (e.g. 15-25
departments per university, undergraduates ≈ 8-14 x faculty); the
``universities`` knob plays the role of LUBM's scale factor.  The paper
uses LUBM20 (~2.7M triples); the default here is CPU-sized but preserves
the schema, the 19-predicate domain, and the triples-per-entity ratio
(~4:1) that make LUBM behave the way it does in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic import GraphBuilder, pick_distinct, skewed_count
from repro.rdf.store import TripleStore

# The LUBM predicate vocabulary used by the generator (19 predicates,
# matching Table I's LUBM20 row).
TYPE = "rdf:type"
PREDICATES = (
    TYPE,
    "ub:subOrganizationOf",
    "ub:worksFor",
    "ub:headOf",
    "ub:memberOf",
    "ub:undergraduateDegreeFrom",
    "ub:mastersDegreeFrom",
    "ub:doctoralDegreeFrom",
    "ub:teacherOf",
    "ub:takesCourse",
    "ub:advisor",
    "ub:publicationAuthor",
    "ub:researchInterest",
    "ub:emailAddress",
    "ub:telephone",
    "ub:name",
    "ub:teachingAssistantOf",
    "ub:officeNumber",
    "ub:age",
)

_CLASSES = {
    "university": "ub:University",
    "department": "ub:Department",
    "full": "ub:FullProfessor",
    "associate": "ub:AssociateProfessor",
    "assistant": "ub:AssistantProfessor",
    "lecturer": "ub:Lecturer",
    "undergrad": "ub:UndergraduateStudent",
    "grad": "ub:GraduateStudent",
    "course": "ub:Course",
    "gradcourse": "ub:GraduateCourse",
    "publication": "ub:Publication",
    "research": "ub:ResearchGroup",
}

_INTERESTS = [f"interest{i}" for i in range(20)]


@dataclass(frozen=True)
class LubmProfile:
    """Per-department entity count ranges from the LUBM specification,
    scaled down by ``density`` to keep CPU runs fast while preserving the
    relative ratios."""

    departments_low: int = 3
    departments_high: int = 6
    full_low: int = 2
    full_high: int = 4
    associate_low: int = 3
    associate_high: int = 5
    assistant_low: int = 2
    assistant_high: int = 4
    lecturer_low: int = 1
    lecturer_high: int = 3
    undergrad_per_faculty: int = 6
    grad_per_faculty: int = 2
    courses_per_faculty: int = 2
    publications_low: int = 1
    publications_high: int = 5


def generate_lubm(
    universities: int = 5,
    seed: int = 7,
    profile: LubmProfile = LubmProfile(),
) -> TripleStore:
    """Generate a LUBM-like store; ``universities`` is the scale factor."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    university_names = [f"univ{u}" for u in range(universities)]
    for name in university_names:
        builder.add(name, TYPE, _CLASSES["university"])

    pub_counter = 0
    for u, univ in enumerate(university_names):
        n_dept = int(
            rng.integers(profile.departments_low, profile.departments_high + 1)
        )
        for d in range(n_dept):
            dept = f"dept{d}.{univ}"
            builder.add(dept, TYPE, _CLASSES["department"])
            builder.add(dept, "ub:subOrganizationOf", univ)
            pub_counter = _populate_department(
                builder, rng, univ, university_names, dept, profile,
                pub_counter,
            )
    return builder.build()


def _populate_department(
    builder: GraphBuilder,
    rng: np.random.Generator,
    univ: str,
    universities: list,
    dept: str,
    profile: LubmProfile,
    pub_counter: int,
) -> int:
    faculty = []
    for rank, low, high in (
        ("full", profile.full_low, profile.full_high),
        ("associate", profile.associate_low, profile.associate_high),
        ("assistant", profile.assistant_low, profile.assistant_high),
        ("lecturer", profile.lecturer_low, profile.lecturer_high),
    ):
        for i in range(int(rng.integers(low, high + 1))):
            person = f"{rank}{i}.{dept}"
            builder.add(person, TYPE, _CLASSES[rank])
            builder.add(person, "ub:worksFor", dept)
            _add_degrees(builder, rng, person, rank, universities)
            builder.add(
                person, "ub:researchInterest",
                _INTERESTS[int(rng.integers(len(_INTERESTS)))],
            )
            builder.add(person, "ub:emailAddress", f'"{person}@edu"')
            if rng.random() < 0.5:
                builder.add(
                    person, "ub:telephone", f'"555-{rng.integers(10000)}"'
                )
            faculty.append((person, rank))
    head = faculty[0][0]
    builder.add(head, "ub:headOf", dept)

    courses = _add_courses(builder, rng, dept, faculty, profile)
    students = _add_students(builder, rng, dept, faculty, courses, profile)
    pub_counter = _add_publications(
        builder, rng, dept, faculty, students, profile, pub_counter
    )

    group_count = int(rng.integers(1, 4))
    for g in range(group_count):
        group = f"group{g}.{dept}"
        builder.add(group, TYPE, _CLASSES["research"])
        builder.add(group, "ub:subOrganizationOf", dept)
    return pub_counter


def _add_degrees(
    builder: GraphBuilder,
    rng: np.random.Generator,
    person: str,
    rank: str,
    universities: list,
) -> None:
    def any_univ() -> str:
        return universities[int(rng.integers(len(universities)))]

    builder.add(person, "ub:undergraduateDegreeFrom", any_univ())
    if rank != "lecturer":
        builder.add(person, "ub:mastersDegreeFrom", any_univ())
    if rank in ("full", "associate", "assistant"):
        builder.add(person, "ub:doctoralDegreeFrom", any_univ())


def _add_courses(builder, rng, dept, faculty, profile):
    courses = []
    for person, rank in faculty:
        for c in range(profile.courses_per_faculty):
            is_grad = rng.random() < 0.4
            kind = "gradcourse" if is_grad else "course"
            course = f"{kind}{len(courses)}.{dept}"
            builder.add(course, TYPE, _CLASSES[kind])
            builder.add(person, "ub:teacherOf", course)
            courses.append(course)
    return courses


def _add_students(builder, rng, dept, faculty, courses, profile):
    n_faculty = len(faculty)
    undergrads = []
    grads = []
    professors = [p for p, r in faculty if r != "lecturer"]
    for i in range(profile.undergrad_per_faculty * n_faculty):
        student = f"ugrad{i}.{dept}"
        builder.add(student, TYPE, _CLASSES["undergrad"])
        builder.add(student, "ub:memberOf", dept)
        for course in pick_distinct(rng, courses, skewed_count(rng, 1, 4)):
            builder.add(student, "ub:takesCourse", course)
        undergrads.append(student)
    for i in range(profile.grad_per_faculty * n_faculty):
        student = f"grad{i}.{dept}"
        builder.add(student, TYPE, _CLASSES["grad"])
        builder.add(student, "ub:memberOf", dept)
        if professors:
            advisor = professors[int(rng.integers(len(professors)))]
            builder.add(student, "ub:advisor", advisor)
        for course in pick_distinct(rng, courses, skewed_count(rng, 1, 3)):
            builder.add(student, "ub:takesCourse", course)
        if courses and rng.random() < 0.3:
            course = courses[int(rng.integers(len(courses)))]
            builder.add(student, "ub:teachingAssistantOf", course)
        grads.append(student)
    return undergrads + grads


def _add_publications(
    builder, rng, dept, faculty, students, profile, pub_counter
):
    grads = [s for s in students if s.startswith("grad")]
    for person, rank in faculty:
        if rank == "lecturer":
            continue
        n_pubs = skewed_count(
            rng, profile.publications_low, profile.publications_high
        )
        for _ in range(n_pubs):
            pub = f"pub{pub_counter}"
            pub_counter += 1
            builder.add(pub, TYPE, _CLASSES["publication"])
            builder.add(pub, "ub:publicationAuthor", person)
            # Grad-student co-authors create the advisor/author predicate
            # correlation LUBM queries exercise.
            for coauthor in pick_distinct(
                rng, grads, int(rng.integers(0, 3))
            ):
                builder.add(pub, "ub:publicationAuthor", coauthor)
    return pub_counter
