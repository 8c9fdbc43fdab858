import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
# the package under test is the one in this checkout's src/, with or without an install
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
