"""Grid Information Service: resource directory and software registry."""

from .directory import GISError, GridInformationService, ResourceRecord
from .software import SoftwareNotFound, SoftwarePackage, SoftwareRegistry

__all__ = [
    "GISError",
    "GridInformationService",
    "ResourceRecord",
    "SoftwareNotFound",
    "SoftwarePackage",
    "SoftwareRegistry",
]
